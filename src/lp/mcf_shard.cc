#include "src/lp/mcf_shard.h"

#include <ctime>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/lp/mcf_internal.h"
#include "src/telemetry/telemetry.h"

namespace bds {

namespace {

using mcf_internal::FlatMcf;
using mcf_internal::FptasWorkspace;

double ProcessCpuSeconds() {
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Group {
  std::vector<int32_t> commodities;  // Ascending global ids.
  int64_t weight = 0;                // Total path-link count (work proxy).
};

}  // namespace

McfResult SolveMcfFptasSharded(const McfInstance& instance, double epsilon,
                               const McfShardOptions& options, ParallelRunner* pool,
                               McfShardStats* stats, const McfWarmSeed* warm,
                               McfWarmInfo* warm_info) {
  BDS_CHECK_MSG(epsilon > 0.0 && epsilon <= 0.5, "epsilon must be in (0, 0.5]");
  BDS_CHECK_MSG(options.num_shards >= 1, "num_shards must be >= 1");
  BDS_TIMED_SCOPE("fptas.sharded");
  McfShardStats local_stats;
  McfShardStats& st = stats != nullptr ? *stats : local_stats;
  st = McfShardStats{};
  if (warm_info != nullptr) {
    *warm_info = McfWarmInfo{};
  }

  McfResult result = mcf_internal::MakeEmptyFptasResult(instance);
  const FlatMcf flat = mcf_internal::FlattenMcf(instance);
  result.ok = true;
  if (flat.paths.empty()) {
    return result;  // Nothing can flow.
  }

  const size_t num_commodities = flat.commodity_paths.size();
  // Shared constants and workspace: all derived from the GLOBAL flat
  // instance, so every group walks the same delta / alpha ladder / factor
  // tables / components the unsharded solver would.
  const double delta = mcf_internal::FptasDelta(flat, epsilon);
  const int64_t max_pushes = options.max_pushes_override > 0
                                 ? options.max_pushes_override
                                 : mcf_internal::MaxPushes(flat, epsilon, delta);
  const FptasWorkspace ws(flat, epsilon);
  st.num_components = static_cast<int>(ws.num_components);

  // Per-commodity work weight: its total path-link count (the push loop's
  // scan cost is linear in it).
  std::vector<int64_t> com_weight(num_commodities, 0);
  for (const mcf_internal::FlatPath& p : flat.paths) {
    com_weight[static_cast<size_t>(p.commodity)] +=
        static_cast<int64_t>(p.links.size());
  }

  // Pack the workspace's link-sharing components into groups. Commodities
  // never sharing an edge (directly or transitively) cannot influence each
  // other's lengths, so their push loops commute — the parity seam.
  std::vector<Group> groups;
  if (options.num_shards <= 1) {
    Group all;
    for (size_t c = 0; c < num_commodities; ++c) {
      if (!flat.commodity_paths[c].empty()) {
        all.commodities.push_back(static_cast<int32_t>(c));
        all.weight += com_weight[c];
      }
    }
    groups.push_back(std::move(all));
  } else {
    const size_t num_components = ws.num_components;
    std::vector<int64_t> comp_weight(num_components, 0);
    for (size_t k = 0; k < num_components; ++k) {
      for (int32_t c : ws.ComponentCommodities(k)) {
        comp_weight[k] += com_weight[static_cast<size_t>(c)];
      }
    }

    // Deterministic packing: components by (weight desc, first commodity
    // asc — the component numbering order) onto the currently lightest
    // group (ties -> lowest group index).
    const int num_groups =
        std::max(1, std::min<int>(options.num_shards, static_cast<int>(num_components)));
    groups.resize(static_cast<size_t>(num_groups));
    std::vector<size_t> order(num_components);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (comp_weight[a] != comp_weight[b]) {
        return comp_weight[a] > comp_weight[b];
      }
      return a < b;
    });
    for (size_t k : order) {
      size_t lightest = 0;
      for (size_t g = 1; g < groups.size(); ++g) {
        if (groups[g].weight < groups[lightest].weight) {
          lightest = g;
        }
      }
      const std::span<const int32_t> coms = ws.ComponentCommodities(k);
      groups[lightest].commodities.insert(groups[lightest].commodities.end(), coms.begin(),
                                          coms.end());
      groups[lightest].weight += comp_weight[k];
    }
    // The push loop consults a group's commodities in list order; ascending
    // ids reproduce the unsharded solver's round-robin order within the
    // group (required for parity).
    for (Group& g : groups) {
      std::sort(g.commodities.begin(), g.commodities.end());
    }

    if (options.split_contended) {
      // Contended instances collapse into few giant components; split the
      // heaviest groups into contiguous commodity ranges until every shard
      // has work. Each piece runs against the full capacities and the merge
      // normalization restores feasibility — deterministic, but no longer
      // bitwise-equal to the unsharded solve.
      int64_t total_weight = 0;
      for (const Group& g : groups) {
        total_weight += g.weight;
      }
      const int64_t target = total_weight / options.num_shards + 1;
      while (static_cast<int>(groups.size()) < options.num_shards) {
        size_t heaviest = 0;
        for (size_t g = 1; g < groups.size(); ++g) {
          if (groups[g].weight > groups[heaviest].weight) {
            heaviest = g;
          }
        }
        Group& heavy = groups[heaviest];
        if (heavy.weight <= target || heavy.commodities.size() < 2) {
          break;
        }
        // Split at the weight midpoint, keeping both halves contiguous (and
        // therefore ascending).
        Group tail;
        int64_t acc = 0;
        size_t cut = 1;
        for (; cut < heavy.commodities.size(); ++cut) {
          acc += com_weight[static_cast<size_t>(heavy.commodities[cut - 1])];
          if (acc * 2 >= heavy.weight) {
            break;
          }
        }
        tail.commodities.assign(heavy.commodities.begin() + static_cast<ptrdiff_t>(cut),
                                heavy.commodities.end());
        heavy.commodities.resize(cut);
        tail.weight = heavy.weight - acc;
        heavy.weight = acc;
        groups.push_back(std::move(tail));
        st.split_mode_used = true;
      }
    }
  }
  st.num_groups = static_cast<int>(groups.size());

  // Warm start: seed raw flow / lengths / cached minima / the alpha-ladder
  // entry ONCE from the global instance. Every group starts from a private
  // copy of the seeded length vector, so (without split_contended) the warm
  // result stays bitwise-invariant to the shard count.
  const bool use_warm = warm != nullptr && !warm->empty();
  mcf_internal::FptasWarmState wstate;
  if (use_warm) {
    wstate = mcf_internal::SeedFptasWarmState(instance, flat, ws, epsilon, delta, *warm);
    st.seeded_commodities = wstate.seeded_commodities;
    st.phases_skipped = wstate.phases_skipped;
    if (warm_info != nullptr) {
      warm_info->used = wstate.seeded_commodities > 0;
      warm_info->seeded_commodities = wstate.seeded_commodities;
      warm_info->phases_skipped = wstate.phases_skipped;
    }
  }
  auto init_length = [&](std::vector<double>& length) {
    if (use_warm) {
      length = wstate.length;
      return;
    }
    length.assign(ws.num_edges + 1, 0.0);
    for (size_t l = 0; l < ws.num_edges; ++l) {
      length[l] = delta / flat.cap[l];
    }
  };

  std::vector<double> raw_flow(ws.num_paths, 0.0);
  std::vector<mcf_internal::FptasLoopStats> group_stats(groups.size());
  int largest_paths = 0;
  for (const Group& g : groups) {
    int paths = 0;
    for (int32_t c : g.commodities) {
      paths += ws.cp_off[static_cast<size_t>(c) + 1] - ws.cp_off[static_cast<size_t>(c)];
    }
    largest_paths = std::max(largest_paths, paths);
  }
  st.largest_group_paths = largest_paths;

  // Cross-group advisory budget: once the groups' summed pushes reach the
  // global cap the run is wedged (the deterministic predicate checked after
  // the join below), its result will be discarded, and the remaining groups
  // only burn CPU — so they may abort early. The abort can only fire when
  // the predicate is already guaranteed true, so results never depend on its
  // timing (see FptasLoopControl).
  std::atomic<int64_t> shared_pushes{0};
  const double t_solve = ProcessCpuSeconds();
  auto solve_group = [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) {
      // Private length vector per group (plus the sentinel slot, pinned to
      // 0.0): initialized exactly like the unsharded solver's, and since the
      // group's commodities are link-disjoint from every other group's (in
      // parity mode), the entries it reads evolve identically to the global
      // run's.
      std::vector<double> length;
      init_length(length);
      mcf_internal::FptasLoopControl control;
      if (use_warm) {
        control.alpha_start = wstate.alpha_start;
        control.cached_min_seed = &wstate.cached_min;
      }
      if (groups.size() > 1) {
        control.shared_pushes = &shared_pushes;
        control.shared_max_pushes = max_pushes;
      }
      group_stats[g] = mcf_internal::RunFptasPushLoop(flat, ws, epsilon, delta, max_pushes,
                                                      groups[g].commodities, length, raw_flow,
                                                      &control);
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && groups.size() > 1) {
    std::vector<int64_t> weights(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      weights[g] = groups[g].weight;
    }
    pool->ForWeighted(weights, solve_group);
  } else {
    solve_group(0, groups.size());
  }

  int64_t cert_checks = 0;
  int64_t certified_stops = 0;
  for (const mcf_internal::FptasLoopStats& gs : group_stats) {
    st.pushes += gs.pushes;
    cert_checks += gs.cert_checks;
    certified_stops += gs.certified_stops;
  }

  // Wedge re-run: the per-group budget is counted per call, so a multi-group
  // run whose SUMMED pushes reach the global cap may have cut off at
  // different pushes than the unsharded loop would. Such runs are discarded
  // and redone as one serial all-commodity loop — the exact unsharded
  // (cold or warm) solve, bit for bit. Never taken outside adversarial
  // inputs or a tiny max_pushes_override.
  if (groups.size() > 1 && st.pushes >= max_pushes) {
    st.wedge_rerun = true;
    std::fill(raw_flow.begin(), raw_flow.end(), 0.0);
    std::vector<int32_t> all_commodities;
    all_commodities.reserve(num_commodities);
    for (size_t c = 0; c < num_commodities; ++c) {
      if (!flat.commodity_paths[c].empty()) {
        all_commodities.push_back(static_cast<int32_t>(c));
      }
    }
    std::vector<double> length;
    init_length(length);
    mcf_internal::FptasLoopControl control;
    if (use_warm) {
      control.alpha_start = wstate.alpha_start;
      control.cached_min_seed = &wstate.cached_min;
    }
    const mcf_internal::FptasLoopStats rerun = mcf_internal::RunFptasPushLoop(
        flat, ws, epsilon, delta, max_pushes, all_commodities, length, raw_flow, &control);
    st.pushes = rerun.pushes;
    cert_checks = rerun.cert_checks;
    certified_stops = rerun.certified_stops;
  }
  const double t_merge = ProcessCpuSeconds();
  st.solve_seconds = t_merge - t_solve;

  // The merge: one finalize over the combined raw flow — normalize each
  // component by its worst edge utilization (per-link proportional budget
  // split; order-independent), then the two greedy augmentation rounds in
  // path order (the bounded rebalance of under-used links).
  mcf_internal::FinalizeFptas(flat, ws, raw_flow, result);
  st.merge_seconds = ProcessCpuSeconds() - t_merge;

  BDS_TELEMETRY_COUNT("fptas.sharded.solves", 1);
  BDS_TELEMETRY_COUNT("fptas.sharded.pushes", st.pushes);
  BDS_TELEMETRY_COUNT("fptas.sharded.groups", st.num_groups);
  BDS_TELEMETRY_COUNT("fptas.sharded.components", st.num_components);
  BDS_TELEMETRY_COUNT("fptas.cert_checks", cert_checks);
  BDS_TELEMETRY_COUNT("fptas.certified_stops", certified_stops);
  if (st.wedge_rerun) {
    BDS_TELEMETRY_COUNT("fptas.sharded.wedge_reruns", 1);
  }
  if (use_warm) {
    BDS_TELEMETRY_COUNT("fptas.warm.solves", 1);
    BDS_TELEMETRY_COUNT("fptas.warm.seeded_commodities", st.seeded_commodities);
    BDS_TELEMETRY_COUNT("fptas.warm.phases_skipped", st.phases_skipped);
  }
  telemetry::TraceInstant("fptas.sharded", "lp",
                          {{"groups", static_cast<double>(st.num_groups)},
                           {"components", static_cast<double>(st.num_components)},
                           {"pushes", static_cast<double>(st.pushes)}});
  return result;
}

}  // namespace bds
