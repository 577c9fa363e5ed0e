// Computes per-flow rates given link capacities.
//
// Algorithm (progressive filling):
//  1. Pinned flows request their pinned rate. If any link is oversubscribed
//     by pinned flows alone, all pinned flows crossing it are scaled down
//     proportionally (iterated to a fixed point) — this models rate limits
//     that were set slightly stale against shrinking residual capacity.
//  2. Unpinned flows share the remaining capacity max-min fairly: all active
//     flows grow at the same rate until a link saturates; flows through
//     saturated links freeze; repeat.
//
// Rates under progressive filling decompose by connected components of the
// flow-link incidence graph, so the one entry point solves one component:
// the simulator gathers each dirty component's flows (sorted by id, for
// canonical results) into flat arrays and calls AllocateSubset on them.
// The whole-network reference solver the property suite checks it against
// lives with the test oracles (tests/oracles/allocator_oracle.h).
//
// Scratch state is generation-stamped per link, so a solve costs
// O(component links + flows), not O(topology links), with no per-call
// clears or allocations at steady state.

#ifndef BDS_SRC_SIMULATOR_BANDWIDTH_ALLOCATOR_H_
#define BDS_SRC_SIMULATOR_BANDWIDTH_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace bds {

class BandwidthAllocator {
 public:
  // Solves `n` flows as a single progressive-filling instance, touching only
  // the links they cross. `capacities[l]` is the residual capacity of link l
  // (already net of background traffic). Flow fi's path is
  // links[offsets[fi]..offsets[fi+1]); pinned[fi] is its pinned rate (0 =
  // fair share); rate[fi] receives the result. Callers pass one
  // link-connected component, sorted by flow id; solving on a component-local
  // contiguous copy keeps every waterfill pass inside a few cache lines.
  void AllocateSubset(const std::vector<Rate>& capacities, size_t n,
                      const int32_t* offsets, const LinkId* links, const Rate* pinned,
                      Rate* rate);

 private:
  void EnsureScratch(size_t num_links);

  // Generation-stamped per-link scratch (valid when link_gen_[l] == gen_).
  uint64_t gen_ = 0;
  std::vector<uint64_t> link_gen_;
  std::vector<Rate> residual_;
  std::vector<Rate> load_;
  std::vector<int> active_count_;
  std::vector<char> link_saturated_;
  std::vector<size_t> used_links_;

  // Per-call flow scratch (indices into the flat arrays being solved).
  std::vector<int32_t> pinned_;
  std::vector<int32_t> fair_;
  std::vector<char> frozen_;
};

}  // namespace bds

#endif  // BDS_SRC_SIMULATOR_BANDWIDTH_ALLOCATOR_H_
