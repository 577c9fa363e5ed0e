// The scheduler's candidate queue (§4.3 rarest-first selection).
//
// Pops always return the global minimum of the remaining candidates under
// the strict total order (eff_dup, salt, key). Keys are unique, so the order
// has no ties and ANY correct priority queue pops the identical sequence —
// which is the whole parity argument for sharding it: K queues over
// contiguous ranges of the candidate array plus a K-way merge at pop time
// still return the global minimum every time, and K = 1 is simply the
// unsharded queue.
//
// Each range is consumed in sorted runs: nth_element carves the `chunk`
// smallest candidates out of the range's unsorted tail and sorts just
// those; every tail element is >= every carved element of its range, so the
// run fronts plus the side heap of stale re-pushes always hold the global
// minimum. The scheduler's early exits keep the pop count in the thousands,
// so one carve per range usually suffices; deep-popping cycles (the fleet
// scale pops hundreds of thousands) double the carve size on every re-carve
// and pay O(log) tail passes instead of one per chunk.

#ifndef BDS_SRC_SCHEDULER_SELECTION_QUEUE_H_
#define BDS_SRC_SCHEDULER_SELECTION_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/parallel.h"

namespace bds {

// A schedulable delivery in packed 24-byte form: `key` is PackCandidateKey's
// (job position, block, dest-DC position), `salt` the deterministic
// pseudo-random tie-break (CandidateSalt), `eff_dup` the speculative
// duplicate count (see controller_algorithm.h).
struct SelectionCandidate {
  int eff_dup;
  uint64_t salt;
  uint64_t key;
  bool operator>(const SelectionCandidate& o) const {
    if (eff_dup != o.eff_dup) {
      return eff_dup > o.eff_dup;
    }
    if (salt != o.salt) {
      return salt > o.salt;
    }
    return key > o.key;
  }
};

class SelectionQueue {
 public:
  // First carve size summed over the ranges (each of K ranges starts at
  // kFirstChunk / K); later carves double it.
  static constexpr size_t kFirstChunk = 16384;

  // Queues every element of `cands`, which the queue permutes in place and
  // which must outlive it, split into `num_shards` contiguous ranges. With
  // more than one range the first carves run on `pool` (may be null);
  // otherwise the first Pop carves.
  SelectionQueue(std::vector<SelectionCandidate>& cands, int num_shards, ParallelRunner* pool);

  bool empty() const {
    if (!side_.empty()) {
      return false;
    }
    for (const Shard& sh : shards_) {
      if (sh.run_pos < sh.run_end || sh.tail < sh.end) {
        return false;
      }
    }
    return true;
  }

  // Removes and returns the minimum. Pre: !empty().
  SelectionCandidate Pop() {
    const SelectionCandidate* best = nullptr;
    size_t best_s = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      if (sh.run_pos == sh.run_end) {
        if (sh.tail >= sh.end) {
          continue;
        }
        Carve(sh);
      }
      const SelectionCandidate& front = cands_[sh.run_pos];
      if (best == nullptr || *best > front) {
        best = &front;
        best_s = s;
      }
    }
    if (best != nullptr && (side_.empty() || side_.top() > *best)) {
      return cands_[shards_[best_s].run_pos++];
    }
    SelectionCandidate c = side_.top();
    side_.pop();
    return c;
  }

  // Re-queues a popped candidate under an updated (larger) order key.
  void Push(const SelectionCandidate& c) { side_.push(c); }

 private:
  struct Shard {
    size_t end = 0;                   // One past this range's last slot.
    size_t run_pos = 0, run_end = 0;  // Sorted run being popped.
    size_t tail = 0;                  // Start of the unsorted remainder.
    size_t chunk = 0;                 // Next carve size.
  };

  void Carve(Shard& sh);  // Pre: sh.tail < sh.end.

  std::vector<SelectionCandidate>& cands_;
  std::vector<Shard> shards_;
  std::priority_queue<SelectionCandidate, std::vector<SelectionCandidate>,
                      std::greater<SelectionCandidate>>
      side_;
};

}  // namespace bds

#endif  // BDS_SRC_SCHEDULER_SELECTION_QUEUE_H_
