// SelectionQueue against a fully ordered oracle: for every shard count the
// pop sequence, with stale re-pushes interleaved, must equal the one a
// std::set ordered by (eff_dup, salt, key) produces.

#include "src/scheduler/selection_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"

namespace bds {
namespace {

struct OracleLess {
  bool operator()(const SelectionCandidate& a, const SelectionCandidate& b) const {
    return std::tie(a.eff_dup, a.salt, a.key) < std::tie(b.eff_dup, b.salt, b.key);
  }
};

// Unique keys in shuffled order; eff_dup and salt drawn from small ranges
// so ties on the leading fields are common and the key decides.
std::vector<SelectionCandidate> RandomCandidates(Rng& rng, size_t n) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i;
  }
  rng.Shuffle(keys);
  std::vector<SelectionCandidate> cands(n);
  for (size_t i = 0; i < n; ++i) {
    cands[i] = SelectionCandidate{static_cast<int>(rng.UniformInt(0, 3)),
                                  static_cast<uint64_t>(rng.UniformInt(0, 1000)), keys[i]};
  }
  return cands;
}

void ExpectPopOrderMatchesOracle(uint64_t seed, size_t n, int shards, size_t pops) {
  Rng rng(seed);
  std::vector<SelectionCandidate> cands = RandomCandidates(rng, n);
  std::set<SelectionCandidate, OracleLess> oracle(cands.begin(), cands.end());
  ASSERT_EQ(oracle.size(), n);
  ParallelRunner pool(4);
  SelectionQueue queue(cands, shards, &pool);
  size_t repushes = 0;
  for (size_t i = 0; i < pops; ++i) {
    ASSERT_FALSE(queue.empty()) << "pop " << i;
    ASSERT_FALSE(oracle.empty());
    SelectionCandidate got = queue.Pop();
    const SelectionCandidate want = *oracle.begin();
    oracle.erase(oracle.begin());
    ASSERT_EQ(std::tie(got.eff_dup, got.salt, got.key),
              std::tie(want.eff_dup, want.salt, want.key))
        << "seed " << seed << " shards " << shards << " pop " << i;
    // Stale re-push: the candidate comes back under a larger eff_dup, as the
    // scheduler re-queues a block whose speculative count went up.
    if (rng.Bernoulli(0.2)) {
      got.eff_dup += static_cast<int>(rng.UniformInt(1, 3));
      queue.Push(got);
      oracle.insert(got);
      ++repushes;
    }
  }
  EXPECT_GT(repushes, pops / 10);
}

TEST(SelectionQueueTest, PopOrderMatchesSortedOracleAcrossShardCounts) {
  // 150,000 candidates: even at 8 shards each range (18,750) exceeds the
  // first carve, so popping past 16,384 per range forces a doubled re-carve.
  for (int shards : {1, 2, 4, 8}) {
    ExpectPopOrderMatchesOracle(/*seed=*/shards, 150'000, shards, 150'000);
  }
}

TEST(SelectionQueueTest, DrainsCompletelyWithRepushes) {
  for (int shards : {1, 2, 4, 8}) {
    Rng rng(100 + shards);
    std::vector<SelectionCandidate> cands = RandomCandidates(rng, 3'000);
    SelectionQueue queue(cands, shards, nullptr);
    std::set<SelectionCandidate, OracleLess> oracle(cands.begin(), cands.end());
    size_t popped = 0;
    while (!queue.empty()) {
      SelectionCandidate c = queue.Pop();
      ASSERT_EQ(c.key, oracle.begin()->key) << "shards " << shards << " pop " << popped;
      oracle.erase(oracle.begin());
      ++popped;
      if (c.eff_dup < 6 && rng.Bernoulli(0.5)) {
        ++c.eff_dup;
        queue.Push(c);
        oracle.insert(c);
      }
    }
    EXPECT_TRUE(oracle.empty());
    EXPECT_GT(popped, size_t{3'000});
  }
}

TEST(SelectionQueueTest, EmptyAndTinyInputs) {
  for (int shards : {1, 2, 8}) {
    std::vector<SelectionCandidate> none;
    SelectionQueue empty(none, shards, nullptr);
    EXPECT_TRUE(empty.empty());
    std::vector<SelectionCandidate> three = {{1, 5, 2}, {0, 9, 1}, {0, 9, 0}};
    SelectionQueue queue(three, shards, nullptr);
    EXPECT_EQ(queue.Pop().key, 0u);
    EXPECT_EQ(queue.Pop().key, 1u);
    EXPECT_EQ(queue.Pop().key, 2u);
    EXPECT_TRUE(queue.empty());
  }
}

}  // namespace
}  // namespace bds
