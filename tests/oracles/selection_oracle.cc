#include "tests/oracles/selection_oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <tuple>
#include <utility>

namespace bds {

namespace {

// A candidate with its delivery coordinates carried alongside the order
// key (eff_dup, salt, key).
struct RefCandidate {
  int eff_dup;
  uint64_t salt;
  uint64_t key;
  JobId job;
  int64_t block;
  DcId dc;
  bool operator>(const RefCandidate& o) const {
    return std::tie(eff_dup, salt, key) > std::tie(o.eff_dup, o.salt, o.key);
  }
};

}  // namespace

std::vector<SelectedDelivery> ReferenceSelection(const Topology& topo,
                                                 const WanRoutingTable& routing,
                                                 const ControllerAlgorithmOptions& options,
                                                 const ReplicaState& state,
                                                 const std::vector<Rate>& residual,
                                                 const DeliveryKeySet& in_flight) {
  const SchedulingPolicy policy = options.policy;
  std::priority_queue<RefCandidate, std::vector<RefCandidate>, std::greater<RefCandidate>> heap;
  state.ForEachOwed(
      [&](size_t jp, const MulticastJob& job, int64_t block, size_t dp, DcId dc, int dups) {
        const uint64_t key = PackCandidateKey(jp, block, dp);
        heap.push(RefCandidate{
            policy == SchedulingPolicy::kRarestFirst ? dups : 0,
            policy == SchedulingPolicy::kSequential ? key : CandidateSalt(job.id, block, dc), key,
            job.id, block, dc});
      });

  // Per-server byte budgets: residual NIC rate * Delta-T * budget_fraction.
  auto budget = [&](LinkId l) {
    const Rate rate = static_cast<size_t>(l) < residual.size()
                          ? residual[static_cast<size_t>(l)]
                          : topo.link(l).capacity;
    return rate * options.cycle_length * options.budget_fraction;
  };
  std::map<ServerId, Bytes> up_left, down_left;
  auto up = [&](ServerId s) -> Bytes& {
    auto [it, inserted] = up_left.try_emplace(s, 0.0);
    if (inserted) {
      it->second = budget(topo.server(s).uplink);
    }
    return it->second;
  };
  auto down = [&](ServerId s) -> Bytes& {
    auto [it, inserted] = down_left.try_emplace(s, 0.0);
    if (inserted) {
      it->second = budget(topo.server(s).downlink);
    }
    return it->second;
  };

  std::map<std::pair<JobId, int64_t>, int> extra_dups;  // Copies scheduled now.
  std::set<ServerId> saturated_dests;
  const int64_t owed_servers = state.NumOwedServers();
  const int64_t failure_patience = 64 * static_cast<int64_t>(topo.num_servers()) + 4096;
  int64_t failures_since_success = 0;
  std::vector<SelectedDelivery> selected;
  while (!heap.empty()) {
    if (options.max_deliveries_per_cycle > 0 &&
        static_cast<int64_t>(selected.size()) >= options.max_deliveries_per_cycle) {
      break;
    }
    if (static_cast<int64_t>(saturated_dests.size()) >= owed_servers ||
        failures_since_success > failure_patience) {
      break;
    }
    RefCandidate c = heap.top();
    heap.pop();
    const MulticastJob* job = state.FindJob(c.job);
    const ServerId dest = state.AssignedServer(c.job, c.block, c.dc);
    const int extra = extra_dups[{c.job, c.block}];
    if (policy == SchedulingPolicy::kRarestFirst) {
      const int now_dup = state.DuplicateCount(c.job, c.block) + extra;
      if (now_dup > c.eff_dup) {
        c.eff_dup = now_dup;  // Stale: re-queue under the speculative count.
        heap.push(c);
        continue;
      }
    }
    if (in_flight.count(DeliveryKey{c.job, c.block, c.dc}) != 0) {
      continue;
    }
    if (dest == kInvalidServer || state.ServerFailed(dest)) {
      continue;
    }
    Bytes& dest_left = down(dest);
    if (dest_left <= 0.0) {
      saturated_dests.insert(dest);
      ++failures_since_success;
      continue;
    }
    // Least-loaded reachable holder, scanning from a per-(block, dc) offset
    // so equal holders share the load.
    const std::vector<ServerId>& holders = state.Holders(c.job, c.block);
    ServerId best_src = kInvalidServer;
    Bytes* best_left = nullptr;
    Bytes best_budget = 0.0;
    if (!holders.empty()) {
      const uint64_t bkey =
          static_cast<uint64_t>(c.job) * 0x1000003 + static_cast<uint64_t>(c.block);
      const uint64_t salt =
          bkey * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(c.dc) * 0x85EBCA6B;
      const size_t offset = static_cast<size_t>(salt % holders.size());
      const DcId dest_dc = topo.server(dest).dc;
      for (size_t i = 0; i < holders.size(); ++i) {
        const ServerId h = holders[(i + offset) % holders.size()];
        const DcId src_dc = topo.server(h).dc;
        if (h == dest || (src_dc != dest_dc && !routing.Reachable(src_dc, dest_dc))) {
          continue;
        }
        Bytes& left = up(h);
        if (left > 0.0 && left > best_budget * (1.0 + 1e-9)) {
          best_budget = left;
          best_src = h;
          best_left = &left;
        }
      }
    }
    if (best_src == kInvalidServer) {
      ++failures_since_success;
      continue;
    }
    failures_since_success = 0;
    const Bytes bytes = job->BlockSizeOf(c.block);
    *best_left -= bytes;
    dest_left -= bytes;
    ++extra_dups[{c.job, c.block}];
    selected.push_back(SelectedDelivery{c.job, c.block, c.dc, dest, best_src, bytes});
  }
  return selected;
}

}  // namespace bds
