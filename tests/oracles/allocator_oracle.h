// Whole-network reference for the simulator's bandwidth allocator.
//
// BandwidthAllocator::AllocateSubset solves one link-connected component on
// flat arrays. AllocateReference is the original single global filling pass
// over every link, written against a plain per-flow struct; the allocator
// property suite checks the per-component solver against it.

#ifndef BDS_TESTS_ORACLES_ALLOCATOR_ORACLE_H_
#define BDS_TESTS_ORACLES_ALLOCATOR_ORACLE_H_

#include <vector>

#include "src/common/types.h"

namespace bds {

// One flow as the reference solver sees it.
struct Flow {
  FlowId id = kInvalidFlow;
  std::vector<LinkId> links;
  Rate pinned_rate = 0.0;  // 0 = fair share; > 0 = pinned to at most this.
  Rate current_rate = 0.0;
  SimTime end_time = -1.0;  // < 0 while in flight.

  bool pinned() const { return pinned_rate > 0.0; }
  bool completed() const { return end_time >= 0.0; }
};

// Writes Flow::current_rate for every flow: pinned flows scaled down to fit,
// then max-min fair filling for the rest. Completed flows get rate 0.
void AllocateReference(const std::vector<Rate>& capacities, std::vector<Flow*>& flows);

}  // namespace bds

#endif  // BDS_TESTS_ORACLES_ALLOCATOR_ORACLE_H_
