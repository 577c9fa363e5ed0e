#include "src/scheduler/controller_algorithm.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "src/common/status.h"
#include "src/lp/mcf.h"
#include "src/telemetry/telemetry.h"
#include "src/topology/path.h"

namespace bds {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Process CPU clock for the per-phase decision timings: unlike the wall
// timers above it charges worker-thread time too, so the bench's "cycle CPU
// under budget" acceptance can't be gamed by adding threads.
double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Packed candidate key layout, most significant field first: job position
// (24 bits), block (34 bits), destination-DC position (6 bits).
constexpr int kKeyJobBits = 24;
constexpr int kKeyJobShift = 40;
constexpr int kKeyBlockShift = 6;
constexpr uint64_t kKeyBlockMask = (uint64_t{1} << 34) - 1;
static_assert(kKeyJobShift + kKeyJobBits == 64);
static_assert(static_cast<uint64_t>(kMaxJobBlocks) == kKeyBlockMask,
              "MulticastJob::Validate must reject every block index the key cannot hold");

// (job, block) hash key shared by the salts and the pop loop's
// speculative-duplicate map.
uint64_t BlockKey(JobId job, int64_t block) {
  return static_cast<uint64_t>(job) * 0x1000003 + static_cast<uint64_t>(block);
}

}  // namespace

uint64_t PackCandidateKey(size_t jp, int64_t block, size_t dp) {
  return (static_cast<uint64_t>(jp) << kKeyJobShift) |
         (static_cast<uint64_t>(block) << kKeyBlockShift) | static_cast<uint64_t>(dp);
}

uint64_t CandidateSalt(JobId job, int64_t block, DcId dc) {
  uint64_t h = BlockKey(job, block) * 0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(dc) * 0xC2B2AE3D27D4EB4FULL;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return h;
}

ControllerAlgorithm::ControllerAlgorithm(const Topology* topo, const WanRoutingTable* routing,
                                         ControllerAlgorithmOptions options)
    : topo_(topo),
      routing_(routing),
      options_(options),
      path_cache_(topo, routing, options.max_wan_routes),
      pool_(options.num_threads) {
  BDS_CHECK(topo != nullptr && routing != nullptr);
  BDS_CHECK(options_.cycle_length > 0.0);
  BDS_CHECK(options_.max_wan_routes >= 1);
  BDS_CHECK(options_.budget_fraction > 0.0 && options_.budget_fraction <= 1.0);
  BDS_CHECK(options_.num_threads >= 1);
  BDS_CHECK(options_.num_shards >= 1);
}

void ControllerAlgorithm::BuildCandidates(int64_t cycle, const ReplicaState& state,
                                          const std::vector<const MulticastJob*>& jobs_by_pos,
                                          CycleDecision& decision) {
  // A candidate is 24 bytes: no PendingDelivery vector is materialized at
  // all. The packed key strictly increases in ForEachOwed order, so ordering
  // by (eff_dup, salt, key) has no ties, and the popped delivery's remaining
  // fields (dest server, duplicate count) are recomputed on demand for the
  // few thousand candidates that actually get popped, instead of for the
  // possible millions that never leave the queue. kSequential's salt is the
  // key itself: packed coordinates sort exactly like pending indices.
  //
  // The build touches every pending delivery (up to 10^7 at the fleet
  // scale), so it is incremental: the previous cycle's slot array is patched
  // — clean (job, 64-block chunk) units are copied with their packed job
  // position adjusted, and only units ReplicaState stamped dirty since the
  // last build are re-priced and re-filled. Amortized cost is O(churn), not
  // O(pending) (DESIGN.md §9.7). The cache may only be patched forward when
  // it describes the previous cycle of this exact ReplicaState object under
  // the same policy; any mismatch (fresh state copy, skipped cycle, explicit
  // invalidation) makes every unit dirty, which is the cold build.
  const SchedulingPolicy policy = options_.policy;
  CandidateCache& cache = cand_cache_;
  const bool warm = cache.valid && cache.state_uid == state.state_uid() &&
                    cache.policy == policy && cycle == cache.last_cycle + 1;
  constexpr int64_t kUnitBlocks = ReplicaState::kDirtyChunkBlocks;
  // New unit list: one unit per (job, chunk), in ForEachOwed order.
  std::vector<CandidateUnit> units;
  {
    size_t total_units = 0;
    for (const MulticastJob* job : jobs_by_pos) {
      total_units += static_cast<size_t>((job->num_blocks() + kUnitBlocks - 1) / kUnitBlocks);
    }
    units.reserve(total_units);
  }
  for (size_t jp = 0; jp < jobs_by_pos.size(); ++jp) {
    const MulticastJob* job = jobs_by_pos[jp];
    const int64_t nblocks = job->num_blocks();
    for (int64_t b0 = 0; b0 < nblocks; b0 += kUnitBlocks) {
      CandidateUnit u;
      u.job = job->id;
      u.b0 = b0;
      u.jp = static_cast<uint32_t>(jp);
      units.push_back(u);
    }
  }
  // Old-unit lookup: a job's units are contiguous and chunk-aligned in both
  // lists, so old unit = (job's first old unit) + chunk index. Job
  // retirement only shifts positions — the fill pass patches the packed jp
  // bit field of reused slots directly.
  std::vector<int64_t> old_first(jobs_by_pos.size(), -1);
  if (warm) {
    std::unordered_map<JobId, int64_t> first_by_job;
    first_by_job.reserve(jobs_by_pos.size() * 2);
    for (size_t u = 0; u < cache.units.size(); ++u) {
      if (u == 0 || cache.units[u].job != cache.units[u - 1].job) {
        first_by_job.emplace(cache.units[u].job, static_cast<int64_t>(u));
      }
    }
    for (size_t jp = 0; jp < jobs_by_pos.size(); ++jp) {
      auto it = first_by_job.find(jobs_by_pos[jp]->id);
      if (it != first_by_job.end()) {
        old_first[jp] = it->second;
      }
    }
  }
  // Classify + price pass: clean units keep their cached count; dirty units
  // are re-priced with one popcount per block.
  const uint64_t seen = cache.seen_epoch;
  std::vector<int64_t> unit_count(units.size(), 0);
  std::vector<int64_t> unit_old(units.size(), -1);  // Old unit idx if clean.
  pool_.For(units.size(), [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      const CandidateUnit& cu = units[u];
      const int64_t chunk = cu.b0 / kUnitBlocks;
      if (warm && old_first[cu.jp] >= 0) {
        const size_t oi = static_cast<size_t>(old_first[cu.jp] + chunk);
        if (oi < cache.units.size() && cache.units[oi].job == cu.job &&
            cache.units[oi].b0 == cu.b0 && state.ChunkVersion(cu.jp, chunk) <= seen) {
          unit_count[u] = cache.units[oi].count;
          unit_old[u] = static_cast<int64_t>(oi);
          continue;
        }
      }
      unit_count[u] = state.CountOwedInRange(cu.jp, cu.b0, cu.b0 + kUnitBlocks);
    }
  });
  int64_t units_reused = 0, slots_reused = 0;
  uint64_t total = 0;
  for (size_t u = 0; u < units.size(); ++u) {
    units[u].offset = total;
    units[u].count = static_cast<uint32_t>(unit_count[u]);
    total += static_cast<uint64_t>(unit_count[u]);
    if (unit_old[u] >= 0) {
      ++units_reused;
      slots_reused += unit_count[u];
    }
  }
  BDS_CHECK(total == static_cast<uint64_t>(state.num_pending()));
  // Fill pass into the double buffer: clean units are copied from the old
  // array with the packed jp field patched (kSequential's salt IS the key,
  // so it is re-derived); dirty units stream ForEachOwedInRange with fused
  // salts.
  CandVec& out = cache.scratch;
  out.resize(static_cast<size_t>(total));
  pool_.ForWeighted(unit_count, [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      const CandidateUnit& cu = units[u];
      if (unit_old[u] >= 0) {
        const CandidateUnit& old = cache.units[static_cast<size_t>(unit_old[u])];
        const Candidate* src = cache.slots.data() + old.offset;
        Candidate* dst = out.data() + cu.offset;
        std::copy(src, src + cu.count, dst);
        if (old.jp != cu.jp) {
          // Two's-complement delta: the jp field occupies the top bits and
          // the low bits are unchanged, so adding the (possibly negative)
          // difference shifted into place never borrows across.
          const uint64_t jp_delta = (static_cast<uint64_t>(cu.jp) - static_cast<uint64_t>(old.jp))
                                    << kKeyJobShift;
          for (uint32_t i = 0; i < cu.count; ++i) {
            dst[i].key += jp_delta;
            if (policy == SchedulingPolicy::kSequential) {
              dst[i].salt = dst[i].key;
            }
          }
        }
      } else {
        size_t w = static_cast<size_t>(cu.offset);
        state.ForEachOwedInRange(
            cu.jp, cu.b0, cu.b0 + kUnitBlocks,
            [&](size_t jp, const MulticastJob& job, int64_t block, size_t dp, DcId dc, int dups) {
              const uint64_t key = PackCandidateKey(jp, block, dp);
              out[w++] = Candidate{
                  policy == SchedulingPolicy::kRarestFirst ? dups : 0,
                  policy == SchedulingPolicy::kSequential ? key : CandidateSalt(job.id, block, dc),
                  key};
            });
        BDS_CHECK(w == static_cast<size_t>(cu.offset) + cu.count);
      }
    }
  });
  std::swap(cache.slots, cache.scratch);
  cache.units = std::move(units);
  cache.valid = true;
  cache.state_uid = state.state_uid();
  cache.seen_epoch = state.dirty_epoch();
  cache.last_cycle = cycle;
  cache.policy = policy;
  // The selection loop permutes its array, so it works on a copy and the
  // cache keeps the pristine slots for the next cycle's patch pass.
  CandVec& work = cand_work_;
  work.resize(static_cast<size_t>(total));
  pool_.For(work.size(), [&](size_t begin, size_t end) {
    std::copy(cache.slots.begin() + static_cast<ptrdiff_t>(begin),
              cache.slots.begin() + static_cast<ptrdiff_t>(end),
              work.begin() + static_cast<ptrdiff_t>(begin));
  });
  decision.cand_units_reused = units_reused;
  decision.cand_units_repriced = static_cast<int64_t>(cache.units.size()) - units_reused;
  decision.cand_slots_reused = slots_reused;
  decision.cand_slots_repriced = static_cast<int64_t>(total) - slots_reused;
  BDS_TELEMETRY_COUNT("scheduler.cand_units_reused", decision.cand_units_reused);
  BDS_TELEMETRY_COUNT("scheduler.cand_units_repriced", decision.cand_units_repriced);
  BDS_TELEMETRY_COUNT("scheduler.cand_slots_reused", decision.cand_slots_reused);
  BDS_TELEMETRY_COUNT("scheduler.cand_slots_repriced", decision.cand_slots_repriced);
}

std::vector<ControllerAlgorithm::Selected> ControllerAlgorithm::ScheduleAll(
    const ReplicaState& state, const DeliveryKeySet& in_flight) const {
  std::vector<PendingDelivery> pending = state.PendingDeliveries();
  std::vector<Selected> all;
  all.reserve(pending.size());
  for (const PendingDelivery& p : pending) {
    if (p.dest_server == kInvalidServer || state.ServerFailed(p.dest_server) ||
        in_flight.count(DeliveryKey{p.job, p.block, p.dc}) != 0) {
      continue;
    }
    const MulticastJob* job = state.FindJob(p.job);
    BDS_CHECK(job != nullptr);
    DcId dest_dc = topo_->server(p.dest_server).dc;
    for (ServerId h : state.Holders(p.job, p.block)) {
      DcId src_dc = topo_->server(h).dc;
      if (h != p.dest_server && (src_dc == dest_dc || routing_->Reachable(src_dc, dest_dc))) {
        all.push_back(Selected{p, job->BlockSizeOf(p.block), h});
        break;
      }
    }
  }
  return all;
}

std::vector<ControllerAlgorithm::Selected> ControllerAlgorithm::ScheduleBlocks(
    int64_t cycle, const ReplicaState& state, const std::vector<Rate>& residual_capacities,
    const DeliveryKeySet& in_flight, CycleDecision& decision) {
  if (options_.schedule_all) {
    return ScheduleAll(state, in_flight);
  }

  // Per-server byte budgets for this cycle (constraint (3) of §4.1): a
  // server can upload/download at most rate * Delta-T bytes per cycle, where
  // rate is the residual on its NIC link.
  auto link_residual = [&](LinkId l) {
    return static_cast<size_t>(l) < residual_capacities.size()
               ? residual_capacities[static_cast<size_t>(l)]
               : topo_->link(l).capacity;
  };
  // Dense per-server budget arrays (lazily filled): the selection loop reads
  // budgets on every pop and for every holder, and hash-map lookups there
  // dominated the loop at the 10^5-block scale.
  const size_t num_servers = static_cast<size_t>(topo_->num_servers());
  std::vector<Bytes> up_budget(num_servers, 0.0);
  std::vector<Bytes> down_budget(num_servers, 0.0);
  std::vector<uint8_t> up_init(num_servers, 0);
  std::vector<uint8_t> down_init(num_servers, 0);
  auto up_left = [&](ServerId s) -> Bytes& {
    size_t i = static_cast<size_t>(s);
    if (!up_init[i]) {
      up_init[i] = 1;
      up_budget[i] =
          link_residual(topo_->server(s).uplink) * options_.cycle_length * options_.budget_fraction;
    }
    return up_budget[i];
  };
  auto down_left = [&](ServerId s) -> Bytes& {
    size_t i = static_cast<size_t>(s);
    if (!down_init[i]) {
      down_init[i] = 1;
      down_budget[i] = link_residual(topo_->server(s).downlink) * options_.cycle_length *
                       options_.budget_fraction;
    }
    return down_budget[i];
  };

  // Generalized rarest-first with *speculative* duplicate counting (the
  // controller's speculation of §5.1): scheduling a copy of block b raises
  // b's effective duplicate count immediately, so within one cycle BDS
  // spreads distinct blocks across destinations first and replicates the
  // same block to all m destinations only when budget remains. The extra
  // copies materialize next cycle as new overlay sources.
  BDS_CHECK_MSG(state.job_ids().size() <= (size_t{1} << kKeyJobBits),
                "ScheduleBlocks: too many concurrent jobs for packed keys");
  // One hash lookup per job here buys O(1) per-pop access below: the pop
  // loop reads duplicate counts and holder lists for hundreds of thousands
  // of candidates per cycle, and per-pop jobs_ lookups dominated it.
  std::vector<ReplicaState::JobCursor> cursors;
  std::vector<const MulticastJob*> jobs_by_pos;
  cursors.reserve(state.job_ids().size());
  jobs_by_pos.reserve(state.job_ids().size());
  for (size_t jp = 0; jp < state.job_ids().size(); ++jp) {
    cursors.push_back(state.CursorAt(jp));
    const MulticastJob* job = &cursors.back().job();
    BDS_CHECK_MSG(job->num_blocks() <= kMaxJobBlocks,
                  "ScheduleBlocks: job too large for packed keys");
    jobs_by_pos.push_back(job);  // dest_dcs fit 6 bits: at most 64 DCs total.
  }
  const bool any_failed = state.AnyServerFailed();
  std::unordered_map<uint64_t, int> extra_dups;  // (job, block) -> copies scheduled now.
  BuildCandidates(cycle, state, jobs_by_pos, decision);
  // Pops extract the global minimum of the remaining candidates under the
  // strict total order (eff_dup, salt, key) for any shard count.
  SelectionQueue queue(cand_work_, options_.num_shards, &pool_);

  // Early-exit bookkeeping: once every owed destination server's download
  // budget is saturated, every possible source server's upload budget is
  // spent, or selection stops making progress, the remaining (possibly
  // millions of) candidates cannot be scheduled this cycle. The source-side
  // exit is exact, not heuristic: budgets only ever decrease within a cycle,
  // every transfer source is by definition a holder of some block, and
  // `holder_universe` counts exactly the servers holding any block — so once
  // that many distinct servers have been seen with an empty upload budget,
  // every future pop would fail its source scan, and breaking cannot change
  // the decision. Without this exit the loop pays the full failure_patience
  // tail (tens of thousands of pops) every time budgets run out before
  // candidates do, which is the common case at the Fig 11a scale.
  const int64_t owed_servers = state.NumOwedServers();
  const int64_t holder_universe = state.NumHolderServers();
  std::unordered_set<ServerId> saturated_dests;
  std::vector<uint8_t> src_exhausted(num_servers, 0);
  int64_t num_src_exhausted = 0;
  auto note_src_exhausted = [&](ServerId s) {
    uint8_t& seen = src_exhausted[static_cast<size_t>(s)];
    if (!seen) {
      seen = 1;
      ++num_src_exhausted;
    }
  };
  int64_t failures_since_success = 0;
  const int64_t failure_patience =
      64 * static_cast<int64_t>(topo_->num_servers()) + 4096;

  // Hot loop: accumulate into plain locals, publish to the registry once at
  // the end (so the disabled cost stays one branch per *call*, not per pop).
  int64_t pops = 0;
  int64_t stale_requeues = 0;
  bool early_exit = false;

  // Effective per-cycle selection cap: the configured cap, tightened to
  // shed_deliveries_cap when the degradation ladder reached kShedCandidates.
  int64_t max_deliveries = options_.max_deliveries_per_cycle;
  if (rung_ >= DegradationRung::kShedCandidates && options_.shed_deliveries_cap > 0) {
    max_deliveries = max_deliveries > 0
                         ? std::min(max_deliveries, options_.shed_deliveries_cap)
                         : options_.shed_deliveries_cap;
  }

  std::vector<Selected> selected;
  while (!queue.empty()) {
    if (max_deliveries > 0 && static_cast<int64_t>(selected.size()) >= max_deliveries) {
      break;
    }
    if (static_cast<int64_t>(saturated_dests.size()) >= owed_servers ||
        num_src_exhausted >= holder_universe ||
        failures_since_success > failure_patience) {
      early_exit = true;
      break;
    }
    Candidate c = queue.Pop();
    ++pops;
    // Unpack the delivery's coordinates; dest server and duplicate count are
    // recomputed here, for popped candidates only (AssignedServer is a pure
    // function of the coordinates, and holder sets don't change mid-cycle).
    const size_t jpos = static_cast<size_t>(c.key >> kKeyJobShift);
    const MulticastJob* job = jobs_by_pos[jpos];
    PendingDelivery p;
    p.job = job->id;
    p.block = static_cast<int64_t>((c.key >> kKeyBlockShift) & kKeyBlockMask);
    p.dc = job->dest_dcs[c.key & 63];
    p.dest_server = state.AssignedServer(p.job, p.block, p.dc);
    p.duplicates = cursors[jpos].duplicate_count(p.block);
    // One hash per candidate: the same (job, block) key drives the staleness
    // check, the holder-offset salt, and the speculative duplicate credit.
    // Read-only lookup here — most candidates are popped once and rejected,
    // and inserting a zero entry for each of them (up to 10^6) would turn
    // the map into the selection loop's dominant cost.
    const uint64_t bkey = BlockKey(p.job, p.block);
    const auto dups_it = extra_dups.find(bkey);
    const int dups = dups_it != extra_dups.end() ? dups_it->second : 0;
    if (options_.policy == SchedulingPolicy::kRarestFirst) {
      int now_dup = p.duplicates + dups;
      if (now_dup > c.eff_dup) {
        c.eff_dup = now_dup;  // Stale: re-queue with the updated key.
        queue.Push(c);
        ++stale_requeues;
        continue;
      }
    }
    if (!in_flight.empty() && in_flight.count(DeliveryKey{p.job, p.block, p.dc}) != 0) {
      continue;
    }
    if (p.dest_server == kInvalidServer || (any_failed && state.ServerFailed(p.dest_server))) {
      continue;  // No live agent can receive this delivery right now.
    }
    Bytes bytes = job->BlockSizeOf(p.block);

    // A block larger than a whole cycle budget may still be scheduled (it
    // simply spans cycles as an in-flight transfer), so the budget check is
    // "budget not yet exhausted", and charging may drive it negative.
    // References into the budget maps stay valid across later inserts, so
    // the charge below reuses this lookup instead of hashing again.
    Bytes& dest_down_left = down_left(p.dest_server);
    if (dest_down_left <= 0.0) {
      saturated_dests.insert(p.dest_server);
      ++failures_since_success;
      continue;  // Destination NIC budget exhausted this cycle.
    }

    // Source selection: among the holders with enough upload budget left,
    // take the least-loaded one (largest remaining budget), breaking ties
    // pseudo-randomly so equal holders share the load — this global
    // balancing is what avoids the hotspots local adaptation creates
    // (§2.3 Limitation 1).
    const std::vector<ServerId>& holders = cursors[jpos].holders(p.block);
    ServerId best_src = kInvalidServer;
    Bytes* best_left = nullptr;
    Bytes best_budget = 0.0;
    if (!holders.empty()) {
      uint64_t salt = bkey * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(p.dc) * 0x85EBCA6B;
      size_t offset = static_cast<size_t>(salt % holders.size());
      DcId dest_dc = topo_->server(p.dest_server).dc;
      for (size_t i = 0; i < holders.size(); ++i) {
        ServerId h = holders[(i + offset) % holders.size()];
        if (h == p.dest_server) {
          continue;
        }
        DcId src_dc = topo_->server(h).dc;
        if (src_dc != dest_dc && !routing_->Reachable(src_dc, dest_dc)) {
          continue;  // No WAN route from this holder to the destination.
        }
        Bytes& left = up_left(h);
        if (left > 0.0 && left > best_budget * (1.0 + 1e-9)) {
          best_budget = left;
          best_src = h;
          best_left = &left;
        } else if (left <= 0.0) {
          note_src_exhausted(h);
        }
      }
    }
    if (best_src == kInvalidServer) {
      ++failures_since_success;
      continue;  // No holder can upload this block this cycle.
    }

    failures_since_success = 0;
    *best_left -= bytes;
    if (*best_left <= 0.0) {
      note_src_exhausted(best_src);
    }
    dest_down_left -= bytes;
    ++extra_dups[bkey];  // Insert-on-accept keeps the map at O(selected).
    selected.push_back(Selected{p, bytes, best_src});
  }
  BDS_TELEMETRY_COUNT("scheduler.candidate_pops", pops);
  BDS_TELEMETRY_COUNT("scheduler.stale_requeues", stale_requeues);
  BDS_TELEMETRY_COUNT("scheduler.early_exits", early_exit ? 1 : 0);
  BDS_TELEMETRY_COUNT("scheduler.blocks_selected", static_cast<int64_t>(selected.size()));
  return selected;
}

void ControllerAlgorithm::RouteBlocks(std::vector<Selected> selected,
                                      const std::vector<Rate>& residual_capacities,
                                      CycleDecision& decision) {
  if (selected.empty()) {
    return;
  }
  const double route_cpu0 = ProcessCpuSeconds();

  // Merge deliveries into subtasks keyed by (src, dst) server pair (§5.1);
  // with merging disabled every delivery is its own commodity.
  struct Subtask {
    ServerId src;
    ServerId dst;
    JobId job;
    std::vector<int64_t> blocks;
    Bytes bytes = 0.0;
  };
  std::vector<Subtask> subtasks;
  if (options_.merge_subtasks) {
    std::map<std::tuple<ServerId, ServerId, JobId>, size_t> index;
    for (const Selected& s : selected) {
      auto key = std::make_tuple(s.src_server, s.delivery.dest_server, s.delivery.job);
      auto [it, inserted] = index.try_emplace(key, subtasks.size());
      if (inserted) {
        subtasks.push_back(
            Subtask{s.src_server, s.delivery.dest_server, s.delivery.job, {}, 0.0});
      }
      Subtask& st = subtasks[it->second];
      st.blocks.push_back(s.delivery.block);
      st.bytes += s.bytes;
    }
  } else {
    subtasks.reserve(selected.size());
    for (const Selected& s : selected) {
      subtasks.push_back(Subtask{s.src_server, s.delivery.dest_server, s.delivery.job,
                                 {s.delivery.block}, s.bytes});
    }
  }
  decision.merged_subtasks = static_cast<int64_t>(subtasks.size());
  const size_t num_subtasks = subtasks.size();
  BDS_TELEMETRY_COUNT("scheduler.route_subtasks", decision.merged_subtasks);

  // Build the path-based MCF: one commodity per subtask; demand is the rate
  // that finishes the subtask within the cycle. The instance and the path
  // buffers are members reused across cycles — per-cycle allocation churn on
  // thousands of small vectors is measurable at the Fig 11a scale.
  McfInstance& instance = mcf_instance_;
  instance.capacities.assign(residual_capacities.begin(), residual_capacities.end());
  instance.capacities.resize(static_cast<size_t>(topo_->num_links()),
                             0.0);  // Defensive: full length.
  instance.commodities.resize(num_subtasks);
  subtask_paths_.resize(num_subtasks);

  // Degradation rung kCachedPaths and above: route every subtask over its
  // single best cached per-DC-pair path — no alternate-route exploration.
  const int route_cap =
      rung_ >= DegradationRung::kCachedPaths ? 1 : options_.max_wan_routes;

  // Serial pre-pass so the parallel materialization below only performs
  // read-only cache lookups.
  for (const Subtask& st : subtasks) {
    path_cache_.EnsurePair(topo_->server(st.src).dc, topo_->server(st.dst).dc);
  }

  // Per-subtask path materialization and commodity build: independent work
  // writing to pre-sized slots.
  pool_.For(num_subtasks, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Subtask& st = subtasks[i];
      std::vector<ServerPath>& paths = subtask_paths_[i];
      path_cache_.MaterializePaths(st.src, st.dst, &paths);
      if (static_cast<int>(paths.size()) > route_cap) {
        paths.resize(static_cast<size_t>(route_cap));
      }
      McfCommodity& commodity = instance.commodities[i];
      commodity.demand = st.bytes / options_.cycle_length;
      commodity.paths.resize(paths.size());
      for (size_t p = 0; p < paths.size(); ++p) {
        std::vector<int>& links = commodity.paths[p].links;
        links.clear();
        links.reserve(paths[p].links.size());
        for (LinkId l : paths[p].links) {
          links.push_back(static_cast<int>(l));
        }
      }
    }
  });

  // Rung kCoarseEpsilon and above trades routing precision for running time
  // by coarsening epsilon.
  const double fptas_epsilon =
      rung_ >= DegradationRung::kCoarseEpsilon
          ? std::min(0.5, options_.fptas_epsilon * options_.degraded_epsilon_factor)
          : options_.fptas_epsilon;

  McfResult flows = options_.use_exact_lp
                        ? SolveMcfSimplex(instance)
                        : SolveMcfFptas(instance, fptas_epsilon);
  // Phase accounting: instance build + solve count as "solve"; the
  // block-split/transfer-emission tail below is "merge".
  const double solve_cpu_end = ProcessCpuSeconds();
  decision.solve_cpu_seconds += solve_cpu_end - route_cpu0;
  if (!flows.ok) {
    return;  // No routing possible this cycle (e.g. LP hit iteration limit).
  }

  // Turn per-path flows into transfer assignments. Blocks are atomic, so a
  // subtask's blocks are split across its paths proportionally to the
  // allocated rates. Each subtask's transfers are built independently, then
  // appended in subtask order so the output is thread-count-invariant.
  std::vector<std::vector<TransferAssignment>> per_subtask(num_subtasks);
  pool_.For(num_subtasks, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Subtask& st = subtasks[i];
      const std::vector<ServerPath>& paths = subtask_paths_[i];
      const std::vector<double>& path_flow = flows.flow[i];
      if (paths.empty()) {
        continue;  // Nothing allocated; the delivery stays pending.
      }
      int64_t num_blocks = static_cast<int64_t>(st.blocks.size());
      std::vector<int64_t> counts = SplitBlocksAcrossPaths(num_blocks, path_flow);
      int64_t cursor = 0;
      double bytes_per_block = st.bytes / static_cast<double>(num_blocks);
      for (size_t p = 0; p < paths.size(); ++p) {
        if (counts[p] <= 0) {
          continue;
        }
        TransferAssignment t;
        t.job = st.job;
        t.blocks.assign(st.blocks.begin() + cursor, st.blocks.begin() + cursor + counts[p]);
        cursor += counts[p];
        t.bytes = bytes_per_block * static_cast<double>(counts[p]);
        t.src_server = st.src;
        t.dst_server = st.dst;
        t.path = paths[p];
        t.rate = path_flow[p];
        per_subtask[i].push_back(std::move(t));
      }
    }
  });
  for (std::vector<TransferAssignment>& transfers : per_subtask) {
    for (TransferAssignment& t : transfers) {
      decision.transfers.push_back(std::move(t));
    }
  }
  decision.merge_cpu_seconds += ProcessCpuSeconds() - solve_cpu_end;
}

std::vector<int64_t> SplitBlocksAcrossPaths(int64_t num_blocks,
                                            const std::vector<double>& path_flow) {
  std::vector<int64_t> counts(path_flow.size(), 0);
  if (num_blocks <= 0 || path_flow.empty()) {
    return counts;
  }
  double total = 0.0;
  size_t largest = 0;
  for (size_t p = 0; p < path_flow.size(); ++p) {
    total += path_flow[p];
    if (path_flow[p] > path_flow[largest]) {
      largest = p;
    }
  }
  if (total <= kFluidEpsilon || path_flow[largest] <= kFluidEpsilon) {
    return counts;  // No path carries a meaningful rate.
  }
  // Provisional floor allocation; the largest-rate path absorbs rounding.
  int64_t assigned = 0;
  for (size_t p = 0; p < path_flow.size(); ++p) {
    counts[p] = static_cast<int64_t>(static_cast<double>(num_blocks) * path_flow[p] / total);
    assigned += counts[p];
  }
  counts[largest] += num_blocks - assigned;
  // Re-credit pass: blocks floored onto a zero-rate path would never move,
  // so hand them to the largest-rate path BEFORE any transfer is emitted.
  // (Re-crediting during emission silently dropped them whenever the
  // zero-rate path followed the largest in iteration order.)
  for (size_t p = 0; p < path_flow.size(); ++p) {
    if (p != largest && counts[p] > 0 && path_flow[p] <= kFluidEpsilon) {
      counts[largest] += counts[p];
      counts[p] = 0;
    }
  }
  return counts;
}

CycleDecision ControllerAlgorithm::Decide(int64_t cycle, const ReplicaState& state,
                                          const std::vector<Rate>& residual_capacities,
                                          const DeliveryKeySet& in_flight) {
  CycleDecision decision;
  decision.cycle = cycle;

  auto t0 = std::chrono::steady_clock::now();
  const double select_cpu0 = ProcessCpuSeconds();
  std::vector<Selected> selected;
  {
    BDS_TIMED_SCOPE("scheduler.schedule");
    selected = ScheduleBlocks(cycle, state, residual_capacities, in_flight, decision);
  }
  decision.select_cpu_seconds = ProcessCpuSeconds() - select_cpu0;
  decision.scheduled_blocks = static_cast<int64_t>(selected.size());
  decision.scheduling_seconds = SecondsSince(t0);

  auto t1 = std::chrono::steady_clock::now();
  {
    BDS_TIMED_SCOPE("scheduler.route");
    RouteBlocks(std::move(selected), residual_capacities, decision);
  }
  decision.routing_seconds = SecondsSince(t1);
  return decision;
}

}  // namespace bds
