// Reference selection for the controller's scheduling step (§4.3).
//
// ControllerAlgorithm::ScheduleBlocks pops candidates from a chunked,
// optionally sharded SelectionQueue and stops as soon as every possible
// source's upload budget is provably spent. ReferenceSelection is the
// direct form of the same rarest-first rule: every owed delivery in one
// binary heap, popped until the destinations saturate or the
// failure-patience heuristic trips, with no source-side early exit. The
// early exit is exact (budgets only decrease within a cycle), so both must
// select the same deliveries, from the same sources, in the same order.

#ifndef BDS_TESTS_ORACLES_SELECTION_ORACLE_H_
#define BDS_TESTS_ORACLES_SELECTION_ORACLE_H_

#include <cstdint>
#include <vector>

#include "src/scheduler/controller_algorithm.h"
#include "src/scheduler/replica_state.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace bds {

struct SelectedDelivery {
  JobId job = kInvalidJob;
  int64_t block = -1;
  DcId dc = kInvalidDc;
  ServerId dest_server = kInvalidServer;
  ServerId src_server = kInvalidServer;
  Bytes bytes = 0.0;
  bool operator==(const SelectedDelivery&) const = default;
};

// The deliveries `options` would select this cycle at the normal
// degradation rung, in selection order.
std::vector<SelectedDelivery> ReferenceSelection(const Topology& topo,
                                                 const WanRoutingTable& routing,
                                                 const ControllerAlgorithmOptions& options,
                                                 const ReplicaState& state,
                                                 const std::vector<Rate>& residual,
                                                 const DeliveryKeySet& in_flight);

}  // namespace bds

#endif  // BDS_TESTS_ORACLES_SELECTION_ORACLE_H_
