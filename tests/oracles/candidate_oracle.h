// From-scratch reference for the controller's incremental candidate build.
//
// ControllerAlgorithm keeps last cycle's candidate slots and patches them
// forward through ReplicaState's dirty chunks. ReferenceCandidates rebuilds
// the same array the direct way — one slot per ReplicaState::ForEachOwed
// visit — and ControllerAlgorithmTestPeer reads the algorithm's cached
// slots, so a test can compare the two slot for slot after every Decide.
// The peer also runs the scheduling step alone, for the reference-selection
// check (selection_oracle.h).

#ifndef BDS_TESTS_ORACLES_CANDIDATE_ORACLE_H_
#define BDS_TESTS_ORACLES_CANDIDATE_ORACLE_H_

#include <cstdint>
#include <vector>

#include "src/scheduler/controller_algorithm.h"
#include "src/scheduler/replica_state.h"
#include "tests/oracles/selection_oracle.h"

namespace bds {

struct CandidateSlot {
  int eff_dup = 0;
  uint64_t salt = 0;
  uint64_t key = 0;
  bool operator==(const CandidateSlot&) const = default;
};

// Every owed delivery of `state` as a candidate slot under `policy`, in
// ForEachOwed order.
std::vector<CandidateSlot> ReferenceCandidates(const ReplicaState& state,
                                               SchedulingPolicy policy);

class ControllerAlgorithmTestPeer {
 public:
  // The slots cached by the last candidate build (empty before the first).
  static std::vector<CandidateSlot> CachedSlots(const ControllerAlgorithm& algo);
  // The deliveries ScheduleBlocks selects for this cycle, in selection order.
  static std::vector<SelectedDelivery> Select(ControllerAlgorithm& algo, int64_t cycle,
                                              const ReplicaState& state,
                                              const std::vector<Rate>& residual,
                                              const DeliveryKeySet& in_flight);
};

}  // namespace bds

#endif  // BDS_TESTS_ORACLES_CANDIDATE_ORACLE_H_
