#include "src/lp/mcf.h"

#include <ctime>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <utility>

#include "src/common/parallel.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/lp/lp_problem.h"
#include "src/lp/mcf_internal.h"
#include "src/telemetry/telemetry.h"

namespace bds {

using mcf_internal::FlatMcf;
using mcf_internal::FlatPath;
using mcf_internal::FlattenMcf;
using mcf_internal::FptasWorkspace;

int McfInstance::num_paths() const {
  int n = 0;
  for (const McfCommodity& c : commodities) {
    n += static_cast<int>(c.paths.size());
  }
  return n;
}

double McfResult::CommodityFlow(int c) const {
  double sum = 0.0;
  for (double f : flow[static_cast<size_t>(c)]) {
    sum += f;
  }
  return sum;
}

McfResult SolveMcfSimplex(const McfInstance& instance, const SimplexOptions& options) {
  McfResult result;
  result.flow.resize(static_cast<size_t>(instance.num_commodities()));

  LpProblem lp;
  // One variable per (commodity, path).
  std::vector<std::vector<int>> var(static_cast<size_t>(instance.num_commodities()));
  for (int c = 0; c < instance.num_commodities(); ++c) {
    const McfCommodity& com = instance.commodities[static_cast<size_t>(c)];
    var[static_cast<size_t>(c)].resize(com.paths.size());
    result.flow[static_cast<size_t>(c)].assign(com.paths.size(), 0.0);
    for (size_t p = 0; p < com.paths.size(); ++p) {
      var[static_cast<size_t>(c)][p] = lp.AddVariable(/*objective=*/1.0);
    }
  }
  // Link capacity rows.
  std::vector<std::vector<LpTerm>> link_terms(static_cast<size_t>(instance.num_links()));
  for (int c = 0; c < instance.num_commodities(); ++c) {
    const McfCommodity& com = instance.commodities[static_cast<size_t>(c)];
    for (size_t p = 0; p < com.paths.size(); ++p) {
      for (int l : com.paths[p].links) {
        BDS_CHECK(l >= 0 && l < instance.num_links());
        link_terms[static_cast<size_t>(l)].push_back(
            {var[static_cast<size_t>(c)][p], 1.0});
      }
    }
  }
  for (int l = 0; l < instance.num_links(); ++l) {
    if (!link_terms[static_cast<size_t>(l)].empty()) {
      lp.AddConstraint(link_terms[static_cast<size_t>(l)], Relation::kLessEqual,
                       instance.capacities[static_cast<size_t>(l)]);
    }
  }
  // Demand rows.
  for (int c = 0; c < instance.num_commodities(); ++c) {
    const McfCommodity& com = instance.commodities[static_cast<size_t>(c)];
    if (com.demand >= 0.0 && !com.paths.empty()) {
      std::vector<LpTerm> terms;
      for (size_t p = 0; p < com.paths.size(); ++p) {
        terms.push_back({var[static_cast<size_t>(c)][p], 1.0});
      }
      lp.AddConstraint(std::move(terms), Relation::kLessEqual, com.demand);
    }
  }

  LpSolution sol = SolveSimplex(lp, options);
  if (!sol.optimal()) {
    return result;  // ok stays false.
  }
  result.ok = true;
  result.total_flow = sol.objective_value;
  for (int c = 0; c < instance.num_commodities(); ++c) {
    for (size_t p = 0; p < result.flow[static_cast<size_t>(c)].size(); ++p) {
      result.flow[static_cast<size_t>(c)][p] =
          std::max(0.0, sol.values[static_cast<size_t>(var[static_cast<size_t>(c)][p])]);
    }
  }
  return result;
}

namespace {

double ProcessCpuSeconds() {
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<int32_t> AllCommodities(const FlatMcf& flat) {
  std::vector<int32_t> all;
  all.reserve(flat.commodity_paths.size());
  for (size_t c = 0; c < flat.commodity_paths.size(); ++c) {
    if (!flat.commodity_paths[c].empty()) {
      all.push_back(static_cast<int32_t>(c));
    }
  }
  return all;
}

struct Group {
  std::vector<int32_t> commodities;  // Ascending global ids.
  int64_t weight = 0;                // Total path-link count (work proxy).
};

// Packs the workspace's link-sharing components into at most `num_shards`
// groups: components by (weight desc, component index asc) onto the
// currently lightest group (ties to the lowest index). Commodities never
// sharing an edge, directly or transitively, cannot influence each other's
// lengths, so their push loops commute — the parity seam.
std::vector<Group> PackComponents(const FlatMcf& flat, const FptasWorkspace& ws,
                                  int num_shards) {
  std::vector<int64_t> com_weight(flat.commodity_paths.size(), 0);
  for (const FlatPath& p : flat.paths) {
    com_weight[static_cast<size_t>(p.commodity)] += static_cast<int64_t>(p.links.size());
  }
  const size_t num_components = ws.num_components;
  std::vector<int64_t> comp_weight(num_components, 0);
  for (size_t k = 0; k < num_components; ++k) {
    for (int32_t c : ws.ComponentCommodities(k)) {
      comp_weight[k] += com_weight[static_cast<size_t>(c)];
    }
  }
  std::vector<Group> groups(static_cast<size_t>(
      std::max(1, std::min<int>(num_shards, static_cast<int>(num_components)))));
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
  // ids reproduce the one-group round-robin order within the group.
  for (Group& g : groups) {
    std::sort(g.commodities.begin(), g.commodities.end());
  }
  return groups;
}

}  // namespace

McfResult SolveMcfFptas(const McfInstance& instance, double epsilon,
                        const McfShardOptions& options, ParallelRunner* pool,
                        McfShardStats* stats, const McfWarmSeed* warm,
                        McfWarmInfo* warm_info) {
  BDS_CHECK_MSG(epsilon > 0.0 && epsilon <= 0.5, "epsilon must be in (0, 0.5]");
  BDS_CHECK_MSG(options.num_shards >= 1, "num_shards must be >= 1");
  BDS_TIMED_SCOPE("fptas.solve");
  McfShardStats local_stats;
  McfShardStats& st = stats != nullptr ? *stats : local_stats;
  st = McfShardStats{};
  if (warm_info != nullptr) {
    *warm_info = McfWarmInfo{};
  }
  McfResult result = mcf_internal::MakeEmptyFptasResult(instance);
  const FlatMcf flat = FlattenMcf(instance);
  result.ok = true;
  if (flat.paths.empty()) {
    return result;  // Nothing can flow.
  }

  // Every derived constant (delta, the alpha ladder, the push budget, the
  // workspace tables and components) comes from the GLOBAL flat instance,
  // so every group walks the trajectory the one-group loop would.
  const double delta = mcf_internal::FptasDelta(flat, epsilon);
  const int64_t max_pushes = options.max_pushes_override > 0
                                 ? options.max_pushes_override
                                 : mcf_internal::MaxPushes(flat, epsilon, delta);
  const FptasWorkspace ws(flat, epsilon);
  st.num_components = static_cast<int>(ws.num_components);

  // Starting state: cold lengths delta / cap and zero raw flow, or the warm
  // seed computed once from the global instance. One slot past the real
  // edges is the sentinel padding edge: length 0.0, never multiplied by a
  // real factor, used by the workspace's unrolled scans.
  const bool use_warm = warm != nullptr && !warm->empty();
  mcf_internal::FptasWarmState wstate;
  mcf_internal::FptasLoopControl control;
  if (use_warm) {
    wstate = mcf_internal::SeedFptasWarmState(instance, flat, ws, epsilon, delta, *warm);
    control.alpha_start = wstate.alpha_start;
    control.cached_min_seed = &wstate.cached_min;
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
  auto init_raw_flow = [&](std::vector<double>& raw_flow) {
    if (use_warm) {
      raw_flow = wstate.raw_flow;
    } else {
      raw_flow.assign(ws.num_paths, 0.0);
    }
  };
  // One serial loop over every commodity: the whole solve with one shard,
  // and the wedge re-run with several.
  auto run_serial = [&](std::vector<double>& raw_flow) {
    std::vector<double> length;
    init_length(length);
    init_raw_flow(raw_flow);
    return mcf_internal::RunFptasPushLoop(flat, ws, epsilon, delta, max_pushes,
                                          AllCommodities(flat), length, raw_flow, &control);
  };

  std::vector<double> raw_flow;
  mcf_internal::FptasLoopStats loop;
  if (options.num_shards == 1) {
    loop = run_serial(raw_flow);
    st.num_groups = 1;
  } else {
    const std::vector<Group> groups = PackComponents(flat, ws, options.num_shards);
    st.num_groups = static_cast<int>(groups.size());
    init_raw_flow(raw_flow);
    // Cross-group advisory budget: once the groups' summed pushes reach the
    // global cap the run is wedged (the deterministic predicate checked
    // after the join below), its result will be discarded, and the
    // remaining groups only burn CPU — so they may abort early. The abort
    // can only fire when the predicate is already guaranteed true, so
    // results never depend on its timing (see FptasLoopControl).
    std::atomic<int64_t> shared_pushes{0};
    std::vector<mcf_internal::FptasLoopStats> group_stats(groups.size());
    auto solve_group = [&](size_t begin, size_t end) {
      for (size_t g = begin; g < end; ++g) {
        // A private length vector per group: the group's commodities are
        // link-disjoint from every other group's, so the entries it reads
        // evolve exactly as in the one-group run.
        std::vector<double> length;
        init_length(length);
        mcf_internal::FptasLoopControl group_control = control;
        if (groups.size() > 1) {
          group_control.shared_pushes = &shared_pushes;
          group_control.shared_max_pushes = max_pushes;
        }
        group_stats[g] = mcf_internal::RunFptasPushLoop(
            flat, ws, epsilon, delta, max_pushes, groups[g].commodities, length, raw_flow,
            &group_control);
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
    for (const mcf_internal::FptasLoopStats& gs : group_stats) {
      loop.pushes += gs.pushes;
      loop.phases = std::max(loop.phases, gs.phases);
      loop.bound_skips += gs.bound_skips;
      loop.commodities_retired += gs.commodities_retired;
      loop.cert_checks += gs.cert_checks;
      loop.certified_stops += gs.certified_stops;
    }
    // Wedge re-run: the push budget is counted per group, so a multi-group
    // run whose SUMMED pushes reach the global cap may have cut off at
    // different pushes than the one-group loop would. Such runs are redone
    // as that loop, bit for bit. Never taken outside adversarial inputs or
    // a tiny max_pushes_override.
    if (groups.size() > 1 && loop.pushes >= max_pushes) {
      st.wedge_rerun = true;
      loop = run_serial(raw_flow);
    }
  }
  st.pushes = loop.pushes;

  const double t_merge = options.num_shards > 1 ? ProcessCpuSeconds() : 0.0;
  // The merge: one finalize over the combined raw flow — normalize each
  // component by its worst edge utilization, then the two greedy
  // augmentation rounds in path order.
  mcf_internal::FinalizeFptas(flat, ws, raw_flow, result);
  if (options.num_shards > 1) {
    st.merge_seconds = ProcessCpuSeconds() - t_merge;
  }

  BDS_TELEMETRY_COUNT("fptas.solves", 1);
  BDS_TELEMETRY_COUNT("fptas.pushes", loop.pushes);
  BDS_TELEMETRY_COUNT("fptas.phases", loop.phases);
  BDS_TELEMETRY_COUNT("fptas.bound_skips", loop.bound_skips);
  BDS_TELEMETRY_COUNT("fptas.commodities_retired", loop.commodities_retired);
  BDS_TELEMETRY_COUNT("fptas.cert_checks", loop.cert_checks);
  BDS_TELEMETRY_COUNT("fptas.certified_stops", loop.certified_stops);
  BDS_TELEMETRY_COUNT("fptas.groups", st.num_groups);
  BDS_TELEMETRY_COUNT("fptas.components", st.num_components);
  if (st.wedge_rerun) {
    BDS_TELEMETRY_COUNT("fptas.wedge_reruns", 1);
  }
  if (use_warm) {
    BDS_TELEMETRY_COUNT("fptas.warm.solves", 1);
    BDS_TELEMETRY_COUNT("fptas.warm.seeded_commodities", wstate.seeded_commodities);
    BDS_TELEMETRY_COUNT("fptas.warm.phases_skipped", wstate.phases_skipped);
  }
  telemetry::TraceInstant("fptas.solve", "lp",
                          {{"commodities", static_cast<double>(ws.num_commodities)},
                           {"paths", static_cast<double>(ws.num_paths)},
                           {"groups", static_cast<double>(st.num_groups)},
                           {"pushes", static_cast<double>(loop.pushes)},
                           {"phases", static_cast<double>(loop.phases)}});
  return result;
}

double MaxCapacityViolation(const McfInstance& instance, const McfResult& result) {
  std::vector<double> load(static_cast<size_t>(instance.num_links()), 0.0);
  std::vector<double> commodity_total(static_cast<size_t>(instance.num_commodities()), 0.0);
  for (int c = 0; c < instance.num_commodities(); ++c) {
    const McfCommodity& com = instance.commodities[static_cast<size_t>(c)];
    for (size_t p = 0; p < com.paths.size(); ++p) {
      double f = result.flow[static_cast<size_t>(c)][p];
      commodity_total[static_cast<size_t>(c)] += f;
      for (int l : com.paths[p].links) {
        load[static_cast<size_t>(l)] += f;
      }
    }
  }
  double worst = 0.0;
  for (int l = 0; l < instance.num_links(); ++l) {
    double capacity = instance.capacities[static_cast<size_t>(l)];
    if (capacity <= 0.0) {
      if (load[static_cast<size_t>(l)] > 0.0) {
        worst = std::max(worst, 1.0);
      }
      continue;
    }
    worst = std::max(worst, (load[static_cast<size_t>(l)] - capacity) / capacity);
  }
  for (int c = 0; c < instance.num_commodities(); ++c) {
    double demand = instance.commodities[static_cast<size_t>(c)].demand;
    if (demand >= 0.0 && demand > 0.0) {
      worst = std::max(worst, (commodity_total[static_cast<size_t>(c)] - demand) / demand);
    } else if (demand == 0.0 && commodity_total[static_cast<size_t>(c)] > 0.0) {
      worst = std::max(worst, 1.0);
    }
  }
  return std::max(0.0, worst);
}

}  // namespace bds
