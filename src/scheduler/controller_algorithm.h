// The BDS controller's per-cycle decision logic (§4) — the paper's core
// contribution. Decoupled into:
//
//   Scheduling (§4.3): generalized rarest-first selection of the block
//   deliveries to attempt this cycle, bounded by per-server upload/download
//   budgets (constraint (3) of §4.1), with balanced source selection.
//
//   Routing (§4.4): a max-throughput path-based multicommodity flow over the
//   selected deliveries, after merging blocks with the same (source,
//   destination) server pair into subtasks (§5.1). Solved with the
//   Garg–Könemann FPTAS by default; `use_exact_lp` switches to the exact
//   simplex ("standard LP"), and `merge_subtasks=false` disables merging —
//   together these reproduce the paper's Fig 13a/13b ablation.

#ifndef BDS_SRC_SCHEDULER_CONTROLLER_ALGORITHM_H_
#define BDS_SRC_SCHEDULER_CONTROLLER_ALGORITHM_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/types.h"
#include "src/lp/mcf.h"
#include "src/scheduler/decision.h"
#include "src/scheduler/degradation.h"
#include "src/scheduler/replica_state.h"
#include "src/scheduler/selection_queue.h"
#include "src/topology/path_cache.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace bds {

// Key for deliveries already in flight (excluded from re-scheduling —
// the non-blocking update of §5.1).
struct DeliveryKey {
  JobId job = kInvalidJob;
  int64_t block = -1;
  DcId dc = kInvalidDc;

  bool operator==(const DeliveryKey& o) const {
    return job == o.job && block == o.block && dc == o.dc;
  }
};

struct DeliveryKeyHash {
  size_t operator()(const DeliveryKey& k) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<uint64_t>(k.job));
    mix(static_cast<uint64_t>(k.block));
    mix(static_cast<uint64_t>(k.dc));
    return static_cast<size_t>(h);
  }
};

using DeliveryKeySet = std::unordered_set<DeliveryKey, DeliveryKeyHash>;

// Block-selection policy for the scheduling step. The paper's BDS uses
// generalized rarest-first (§4.3); the alternatives exist for the ablation
// bench showing why availability balancing matters (appendix theorem).
enum class SchedulingPolicy {
  kRarestFirst,  // Fewest replicas first, with speculative duplicate counts.
  kRandom,       // Uniformly random among pending deliveries.
  kSequential,   // Block order, destination-major (naive).
};

struct ControllerAlgorithmOptions {
  SimTime cycle_length = 3.0;  // Delta-T, the paper's default.
  SchedulingPolicy policy = SchedulingPolicy::kRarestFirst;
  double fptas_epsilon = 0.1;
  bool merge_subtasks = true;  // §5.1 block merging.
  bool use_exact_lp = false;   // Standard-LP mode (Fig 13a baseline).
  // Joint formulation: skip the scheduling step entirely and hand EVERY
  // outstanding delivery to the routing solver as its own commodity — the
  // undecoupled "standard routing formulation" of §3/§6.3.4 whose running
  // time explodes with block count. Combine with use_exact_lp and
  // merge_subtasks=false for the paper's Fig 13a baseline.
  bool schedule_all = false;
  int max_wan_routes = 3;      // Candidate WAN routes per server pair.
  // Fraction of a server's per-cycle byte budget the scheduler may commit.
  // Leaving headroom lets the (1 - eps)-approximate routing step satisfy
  // every scheduled demand in full, so transfers finish within the cycle
  // instead of straggling into the next one and blocking its budget.
  double budget_fraction = 0.9;
  // Optional hard cap on deliveries scheduled per cycle; 0 = capacity-driven.
  int64_t max_deliveries_per_cycle = 0;
  // Worker threads for the per-subtask and per-candidate passes. 1 (the
  // default) runs everything on the calling thread; higher values fan the
  // independent work out over a small pool. Decisions are byte-identical
  // for every value (deterministic static partitioning, per-slot writes).
  int num_threads = 1;
  // Fleet-scale sharding of selection (DESIGN.md "Sharded controller").
  // With K > 1 the selection queue carves K contiguous ranges of the
  // candidate array and merges them at pop time (SelectionQueue); routing
  // is one solve whatever K is. Decisions are bit-identical to
  // num_shards = 1 for ANY shard and thread count — selection pops the same
  // strict total order (see the shard-parity suite). use_exact_lp shards
  // selection the same way; schedule_all, which selects every outstanding
  // delivery, ignores it.
  int num_shards = 1;
  // Degradation-ladder knob positions (src/scheduler/degradation.h); only
  // consulted when SetDegradationRung raises the rung above kNormal.
  // kCoarseEpsilon multiplies fptas_epsilon by this factor (capped at 0.5):
  double degraded_epsilon_factor = 4.0;
  // kShedCandidates caps deliveries selected per cycle at this (combined
  // with max_deliveries_per_cycle by min when both are set):
  int64_t shed_deliveries_cap = 4096;
};

class ControllerAlgorithm {
 public:
  ControllerAlgorithm(const Topology* topo, const WanRoutingTable* routing,
                      ControllerAlgorithmOptions options);

  // Computes this cycle's transfers. `residual_capacities` is per LinkId,
  // already net of latency-sensitive traffic and in-flight bulk transfers
  // (see BandwidthSeparator); `in_flight` deliveries are skipped.
  CycleDecision Decide(int64_t cycle, const ReplicaState& state,
                       const std::vector<Rate>& residual_capacities,
                       const DeliveryKeySet& in_flight);

  // Drops the cached overlay-path skeletons. Call when the routing table's
  // route sets may have changed (rebuild, link fault); capacity-only changes
  // never require it.
  void InvalidatePathCache() { path_cache_.Invalidate(); }

  // Drops the cross-cycle candidate cache. The controller calls this on
  // server failure and controller-replica failover; the cache's own
  // identity/continuity checks (state uid, cycle + 1, policy) cover
  // everything else (invalidation matrix: DESIGN.md §9.7).
  void InvalidateCycleCache() { cand_cache_.valid = false; }

  // Hit/miss/invalidation counters of the overlay path cache (see
  // ServerPathCache::Stats). Sharded and unsharded runs over the same cycle
  // sequence must observe identical miss and invalidation counts — asserted
  // by the path-cache shard test.
  ServerPathCache::Stats path_cache_stats() const { return path_cache_.stats(); }

  // Degradation ladder (set by the cycle-deadline watchdog before each
  // cycle). Rungs kCachedPaths..kShedCandidates cheapen this Decide() call:
  // single cached path per subtask, coarser FPTAS epsilon, shed selection
  // cap. kExtendDecisions is realized by the controller (it skips Decide()
  // entirely); the algorithm treats it like kShedCandidates if called.
  void SetDegradationRung(DegradationRung rung) { rung_ = rung; }
  DegradationRung degradation_rung() const { return rung_; }

  const ControllerAlgorithmOptions& options() const { return options_; }

 private:
  struct Selected {
    PendingDelivery delivery;
    Bytes bytes = 0.0;
    ServerId src_server = kInvalidServer;
  };

  // Reads cand_cache_ for the churn suite's slot-for-slot oracle check and
  // runs ScheduleBlocks for the reference-selection check (tests/oracles/).
  friend class ControllerAlgorithmTestPeer;

  // Ordering by (eff_dup, salt, key) has no ties: `key` strictly increases
  // in PendingDeliveries() order (see SelectionCandidate).
  using Candidate = SelectionCandidate;
  using CandVec = std::vector<Candidate>;

  // One kDirtyChunkBlocks-aligned slice of one job's candidate slots in the
  // previous cycle's array (the delta build's unit of reuse).
  struct CandidateUnit {
    JobId job = kInvalidJob;
    int64_t b0 = 0;        // First block of the chunk.
    uint32_t jp = 0;       // Job position at build time.
    uint32_t count = 0;    // Candidate slots in the chunk.
    uint64_t offset = 0;   // First slot index in `slots`.
  };

  // Previous cycle's candidate array plus the unit index needed to patch it
  // (DESIGN.md §9.7). Valid only against the exact ReplicaState object it
  // was built from (state uid), the next cycle (last_cycle + 1), and the
  // same policy; anything else makes every unit dirty (the cold build) and
  // refills the cache.
  struct CandidateCache {
    bool valid = false;
    uint64_t state_uid = 0;
    uint64_t seen_epoch = 0;  // ReplicaState::dirty_epoch() after the build.
    int64_t last_cycle = 0;
    SchedulingPolicy policy = SchedulingPolicy::kRarestFirst;
    std::vector<CandidateUnit> units;
    CandVec slots;
    CandVec scratch;  // Double buffer for the patch pass.
  };

  // Joint formulation (schedule_all): every outstanding delivery, with its
  // first reachable holder as the source.
  std::vector<Selected> ScheduleAll(const ReplicaState& state,
                                    const DeliveryKeySet& in_flight) const;

  // Scheduling step: rarest-first selection under capacity budgets.
  std::vector<Selected> ScheduleBlocks(int64_t cycle, const ReplicaState& state,
                                       const std::vector<Rate>& residual_capacities,
                                       const DeliveryKeySet& in_flight, CycleDecision& decision);

  // Fills cand_work_ with this cycle's candidates (one slot per owed
  // delivery, in ForEachOwed order) by patching cand_cache_ forward; a cold
  // or invalidated cache re-prices every unit.
  void BuildCandidates(int64_t cycle, const ReplicaState& state,
                       const std::vector<const MulticastJob*>& jobs_by_pos,
                       CycleDecision& decision);

  // Routing step: merge into subtasks, build the MCF, allocate rates.
  void RouteBlocks(std::vector<Selected> selected,
                   const std::vector<Rate>& residual_capacities, CycleDecision& decision);

  const Topology* topo_;
  const WanRoutingTable* routing_;
  ControllerAlgorithmOptions options_;
  DegradationRung rung_ = DegradationRung::kNormal;
  ServerPathCache path_cache_;
  ParallelRunner pool_;

  // Per-cycle scratch reused across Decide() calls so the routing step stops
  // re-allocating its MCF instance and path buffers every cycle.
  McfInstance mcf_instance_;
  std::vector<std::vector<ServerPath>> subtask_paths_;
  // Cross-cycle caches (DESIGN.md §9.7). cand_work_ is the selection loop's
  // working array, reused so the fleet-scale build stops re-allocating
  // hundreds of megabytes per cycle.
  CandVec cand_work_;
  CandidateCache cand_cache_;
};

// The selection's pop order is (eff_dup, salt, key) over these two values.
// PackCandidateKey packs a delivery's coordinates — job position in
// job_ids() (24 bits), block (34 bits), destination-DC position (6 bits) —
// so keys compare exactly like the coordinates in ForEachOwed order.
// CandidateSalt is the pseudo-random tie-break among equally rare
// candidates: it spreads them across destination DCs and blocks, where
// ordering by pending position would aim every first copy at the
// lowest-numbered DC and leave the others' downlinks idle for the cycle.
uint64_t PackCandidateKey(size_t jp, int64_t block, size_t dp);
uint64_t CandidateSalt(JobId job, int64_t block, DcId dc);

// Splits `num_blocks` atomic blocks across a subtask's paths proportionally
// to the allocated `path_flow` rates: floor allocation per path, remainder —
// and anything a zero-rate path would have received — credited to the
// highest-rate path. Returns one count per path summing to num_blocks, or
// all zeros when no path carries meaningful rate. Exposed for unit tests;
// RouteBlocks uses it per subtask.
std::vector<int64_t> SplitBlocksAcrossPaths(int64_t num_blocks,
                                            const std::vector<double>& path_flow);

}  // namespace bds

#endif  // BDS_SRC_SCHEDULER_CONTROLLER_ALGORITHM_H_
