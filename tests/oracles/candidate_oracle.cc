#include "tests/oracles/candidate_oracle.h"

namespace bds {

std::vector<CandidateSlot> ReferenceCandidates(const ReplicaState& state,
                                               SchedulingPolicy policy) {
  std::vector<CandidateSlot> out;
  state.ForEachOwed(
      [&](size_t jp, const MulticastJob& job, int64_t block, size_t dp, DcId dc, int dups) {
        const uint64_t key = PackCandidateKey(jp, block, dp);
        out.push_back(CandidateSlot{
            policy == SchedulingPolicy::kRarestFirst ? dups : 0,
            policy == SchedulingPolicy::kSequential ? key : CandidateSalt(job.id, block, dc),
            key});
      });
  return out;
}

std::vector<CandidateSlot> ControllerAlgorithmTestPeer::CachedSlots(
    const ControllerAlgorithm& algo) {
  std::vector<CandidateSlot> out;
  out.reserve(algo.cand_cache_.slots.size());
  for (const ControllerAlgorithm::Candidate& c : algo.cand_cache_.slots) {
    out.push_back(CandidateSlot{c.eff_dup, c.salt, c.key});
  }
  return out;
}

std::vector<SelectedDelivery> ControllerAlgorithmTestPeer::Select(
    ControllerAlgorithm& algo, int64_t cycle, const ReplicaState& state,
    const std::vector<Rate>& residual, const DeliveryKeySet& in_flight) {
  CycleDecision decision;
  std::vector<SelectedDelivery> out;
  for (const ControllerAlgorithm::Selected& s :
       algo.ScheduleBlocks(cycle, state, residual, in_flight, decision)) {
    out.push_back(SelectedDelivery{s.delivery.job, s.delivery.block, s.delivery.dc,
                                   s.delivery.dest_server, s.src_server, s.bytes});
  }
  return out;
}

}  // namespace bds
