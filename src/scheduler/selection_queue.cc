#include "src/scheduler/selection_queue.h"

#include <algorithm>

namespace bds {

SelectionQueue::SelectionQueue(std::vector<SelectionCandidate>& cands, int num_shards,
                               ParallelRunner* pool)
    : cands_(cands), shards_(static_cast<size_t>(num_shards)) {
  const size_t n = cands.size();
  const size_t num = shards_.size();
  for (size_t s = 0; s < num; ++s) {
    Shard& sh = shards_[s];
    sh.run_pos = sh.run_end = sh.tail = n * s / num;
    sh.end = n * (s + 1) / num;
    // The K first carves together sort about what one unsharded carve
    // sorts; deep-popping cycles re-carve with doubling sizes.
    sh.chunk = std::max<size_t>(1, kFirstChunk / num);
  }
  if (num > 1) {
    // Each range's carve touches only its own slots.
    auto carve_range = [&](size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) {
        if (shards_[s].tail < shards_[s].end) {
          Carve(shards_[s]);
        }
      }
    };
    if (pool != nullptr) {
      pool->For(num, carve_range);
    } else {
      carve_range(0, num);
    }
  }
}

void SelectionQueue::Carve(Shard& sh) {
  const size_t k = std::min(sh.chunk, sh.end - sh.tail);
  // Pop order is unaffected by where the carve boundary lands: every tail
  // element is >= every carved element.
  sh.chunk *= 2;
  auto less = [](const SelectionCandidate& a, const SelectionCandidate& b) { return b > a; };
  auto begin = cands_.begin() + static_cast<ptrdiff_t>(sh.tail);
  auto range_end = cands_.begin() + static_cast<ptrdiff_t>(sh.end);
  std::nth_element(begin, begin + static_cast<ptrdiff_t>(k) - 1, range_end, less);
  std::sort(begin, begin + static_cast<ptrdiff_t>(k), less);
  sh.run_pos = sh.tail;
  sh.run_end = sh.tail + k;
  sh.tail = sh.run_end;
}

}  // namespace bds
