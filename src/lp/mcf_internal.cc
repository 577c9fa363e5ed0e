#include "src/lp/mcf_internal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "src/common/status.h"
#include "src/common/types.h"

namespace bds {
namespace mcf_internal {

FlatMcf FlattenMcf(const McfInstance& instance) {
  FlatMcf flat;
  flat.cap = instance.capacities;
  flat.num_links = flat.cap.size();
  for (int c = 0; c < instance.num_commodities(); ++c) {
    const McfCommodity& com = instance.commodities[static_cast<size_t>(c)];
    int demand_edge = -1;
    if (com.demand >= 0.0) {
      demand_edge = static_cast<int>(flat.cap.size());
      flat.cap.push_back(com.demand);
    }
    for (size_t p = 0; p < com.paths.size(); ++p) {
      FlatPath fp;
      fp.commodity = c;
      fp.path_index = static_cast<int>(p);
      const std::vector<int>& links = com.paths[p].links;
      fp.links.reserve(links.size() + (demand_edge >= 0 ? 1 : 0));
      fp.links.insert(fp.links.end(), links.begin(), links.end());
      if (demand_edge >= 0) {
        fp.links.push_back(demand_edge);
      }
      // Paths through a zero-capacity edge can carry nothing.
      bool dead = false;
      for (int l : fp.links) {
        if (flat.cap[static_cast<size_t>(l)] <= 0.0) {
          dead = true;
          break;
        }
      }
      if (!dead && !fp.links.empty()) {
        flat.paths.push_back(std::move(fp));
      }
    }
  }
  flat.commodity_paths.resize(static_cast<size_t>(instance.num_commodities()));
  for (size_t i = 0; i < flat.paths.size(); ++i) {
    flat.commodity_paths[static_cast<size_t>(flat.paths[i].commodity)].push_back(
        static_cast<int>(i));
    flat.max_len = std::max(flat.max_len, flat.paths[i].links.size());
  }
  return flat;
}

double FptasDelta(const FlatMcf& flat, double epsilon) {
  return (1.0 + epsilon) *
         std::pow((1.0 + epsilon) * static_cast<double>(flat.num_edges()), -1.0 / epsilon);
}

int64_t MaxPushes(const FlatMcf& flat, double epsilon, double delta) {
  return static_cast<int64_t>(4.0 * static_cast<double>(flat.num_edges()) *
                              std::log((1.0 + epsilon) / delta) / std::log(1.0 + epsilon)) +
         1024;
}

McfResult MakeEmptyFptasResult(const McfInstance& instance) {
  McfResult result;
  result.flow.resize(static_cast<size_t>(instance.num_commodities()));
  for (int c = 0; c < instance.num_commodities(); ++c) {
    result.flow[static_cast<size_t>(c)].assign(
        instance.commodities[static_cast<size_t>(c)].paths.size(), 0.0);
  }
  return result;
}

namespace {

// Calls fn(path id, first link, one-past-last link) for every path of
// `coms`, in ascending flat path order.
template <typename Fn>
void ForEachPath(const FptasWorkspace& ws, std::span<const int32_t> coms, Fn&& fn) {
  for (int32_t c : coms) {
    for (int32_t idx = ws.cp_off[c]; idx < ws.cp_off[c + 1]; ++idx) {
      const int32_t pi = ws.cp_ids[static_cast<size_t>(idx)];
      fn(pi, ws.path_links.data() + ws.path_off[pi], ws.path_links.data() + ws.path_off[pi + 1]);
    }
  }
}

// load[e] = sum of flow over the paths of `coms` through e, for their edges.
void AccumulateLoad(const FptasWorkspace& ws, std::span<const int32_t> coms, const double* flow,
                    double* load) {
  ForEachPath(ws, coms, [&](int32_t, const int32_t* lb, const int32_t* le) {
    for (const int32_t* l = lb; l != le; ++l) {
      load[*l] = 0.0;
    }
  });
  ForEachPath(ws, coms, [&](int32_t pi, const int32_t* lb, const int32_t* le) {
    for (const int32_t* l = lb; l != le; ++l) {
      load[*l] += flow[pi];
    }
  });
}

// Scale-free finalize, in place, of the commodities `coms` (see
// FinalizeFptas): `flow` (indexed by flat path id) holds their raw flow on
// entry and their final flow on return; `raw_load` and `load` (indexed by
// edge id) are scratch. Touches only the paths and edges of `coms`. Returns
// their total.
double FinalizeCommodities(const FlatMcf& flat, const FptasWorkspace& ws,
                           std::span<const int32_t> coms, double* flow, double* raw_load,
                           double* load) {
  const std::vector<double>& cap = flat.cap;
  AccumulateLoad(ws, coms, flow, raw_load);
  // Every edge on a flat path has positive capacity (FlattenMcf drops paths
  // through zero-capacity edges).
  double worst = 0.0;
  ForEachPath(ws, coms, [&](int32_t, const int32_t* lb, const int32_t* le) {
    for (const int32_t* l = lb; l != le; ++l) {
      worst = std::max(worst, raw_load[*l] / cap[static_cast<size_t>(*l)]);
    }
  });
  // Flows and edge loads are both divided by the worst congestion (the
  // loads are scaled, not re-summed from the scaled flows).
  const double norm = worst > 0.0 ? worst : 1.0;
  ForEachPath(ws, coms, [&](int32_t pi, const int32_t* lb, const int32_t* le) {
    flow[pi] /= norm;
    for (const int32_t* l = lb; l != le; ++l) {
      load[*l] = raw_load[*l] / norm;
    }
  });

  for (int round = 0; round < 2; ++round) {
    ForEachPath(ws, coms, [&](int32_t pi, const int32_t* lb, const int32_t* le) {
      double slack = std::numeric_limits<double>::infinity();
      for (const int32_t* l = lb; l != le; ++l) {
        slack = std::min(slack, cap[static_cast<size_t>(*l)] - load[*l]);
      }
      if (slack > kFluidEpsilon) {
        flow[pi] += slack;
        for (const int32_t* l = lb; l != le; ++l) {
          load[*l] += slack;
        }
      }
    });
  }

  double total = 0.0;
  ForEachPath(ws, coms, [&](int32_t pi, const int32_t*, const int32_t*) { total += flow[pi]; });
  return total;
}

}  // namespace

void FinalizeFptas(const FlatMcf& flat, const FptasWorkspace& ws,
                   std::vector<double>& raw_flow, McfResult& result) {
  std::vector<double> raw_load(flat.num_edges(), 0.0);
  std::vector<double> load(flat.num_edges(), 0.0);
  for (size_t k = 0; k < ws.num_components; ++k) {
    FinalizeCommodities(flat, ws, ws.ComponentCommodities(k), raw_flow.data(), raw_load.data(),
                        load.data());
  }
  const std::vector<FlatPath>& paths = flat.paths;
  for (size_t i = 0; i < paths.size(); ++i) {
    result.flow[static_cast<size_t>(paths[i].commodity)][static_cast<size_t>(paths[i].path_index)] =
        raw_flow[i];
    result.total_flow += raw_flow[i];
  }
}

double FptasCertifier::DualBound(std::span<const int32_t> coms, const double* length) {
  const FlatMcf& flat = flat_;
  const FptasWorkspace& ws = ws_;
  const int32_t num_links = static_cast<int32_t>(flat.num_links);
  // sum_e cap_e * length_e over the distinct real links of the paths, in
  // order of first appearance; seen_ is all-zero again on return.
  double weighted = 0.0;
  ForEachPath(ws, coms, [&](int32_t, const int32_t* lb, const int32_t* le) {
    for (const int32_t* l = lb; l != le; ++l) {
      if (*l < num_links && !seen_[static_cast<size_t>(*l)]) {
        seen_[static_cast<size_t>(*l)] = 1;
        weighted += flat.cap[static_cast<size_t>(*l)] * length[*l];
      }
    }
  });
  ForEachPath(ws, coms, [&](int32_t, const int32_t* lb, const int32_t* le) {
    for (const int32_t* l = lb; l != le; ++l) {
      seen_[static_cast<size_t>(*l)] = 0;
    }
  });
  // Breakpoints (m_c, d_c) of the capped commodities; s_max caps s at the
  // cheapest uncapped commodity, whose paths need y summing to >= 1 from
  // the real links alone.
  std::vector<std::pair<double, double>> capped;
  double s_max = std::numeric_limits<double>::infinity();
  for (int32_t c : coms) {
    double m = std::numeric_limits<double>::infinity();
    for (int32_t idx = ws.cp_off[c]; idx < ws.cp_off[c + 1]; ++idx) {
      const int32_t pi = ws.cp_ids[static_cast<size_t>(idx)];
      double s = 0.0;
      for (int32_t j = ws.path_off[pi]; j < ws.path_off[pi + 1]; ++j) {
        const int32_t l = ws.path_links[static_cast<size_t>(j)];
        if (l < num_links) {
          s += length[l];
        }
      }
      m = std::min(m, s);
    }
    const int32_t demand_edge = ws.com_demand_edge[static_cast<size_t>(c)];
    if (demand_edge >= 0) {
      capped.emplace_back(m, flat.cap[static_cast<size_t>(demand_edge)]);
    } else {
      s_max = std::min(s_max, m);
    }
  }
  std::sort(capped.begin(), capped.end());

  // With D, M the sums of d_c and d_c * m_c over the commodities with
  // m_c < s, the objective at s is (weighted - M) / s + D.
  double bound = std::numeric_limits<double>::infinity();
  double d_sum = 0.0, dm_sum = 0.0;
  for (size_t k = 0; k < capped.size() && capped[k].first < s_max; ++k) {
    const auto [m, d] = capped[k];
    if (m > 0.0) {
      bound = std::min(bound, (weighted - dm_sum) / m + d_sum);
    }
    d_sum += d;
    dm_sum += d * m;
  }
  if (s_max < std::numeric_limits<double>::infinity()) {
    bound = std::min(bound, (weighted - dm_sum) / s_max + d_sum);
  } else {
    bound = std::min(bound, d_sum);
  }
  return bound;
}

FptasCertifier::FptasCertifier(const FlatMcf& flat, const FptasWorkspace& ws, double epsilon)
    : flat_(flat), ws_(ws), tolerance_(1.0 + epsilon / 10.0) {}

FptasCertRecord FptasCertifier::Check(std::span<const int32_t> coms, int64_t phase,
                                      const double* length, const double* raw_flow) {
  if (flow_.empty()) {
    flow_.assign(ws_.num_paths, 0.0);
    raw_load_.assign(ws_.num_edges, 0.0);
    load_.assign(ws_.num_edges, 0.0);
    seen_.assign(ws_.num_edges, 0);
  }
  ForEachPath(ws_, coms, [&](int32_t pi, const int32_t*, const int32_t*) {
    flow_[static_cast<size_t>(pi)] = raw_flow[pi];
  });
  FptasCertRecord rec;
  rec.component = ws_.com_component[static_cast<size_t>(coms.front())];
  rec.phase = phase;
  rec.primal =
      FinalizeCommodities(flat_, ws_, coms, flow_.data(), raw_load_.data(), load_.data());
  rec.bound = DualBound(coms, length);
  rec.certified = rec.primal * tolerance_ >= rec.bound;
  return rec;
}

FptasWorkspace::FptasWorkspace(const FlatMcf& flat, double epsilon) {
  const std::vector<double>& cap = flat.cap;
  const std::vector<FlatPath>& paths = flat.paths;
  num_edges = flat.num_edges();
  num_paths = paths.size();
  num_commodities = flat.commodity_paths.size();

  path_off.assign(num_paths + 1, 0);
  size_t total_links = 0;
  for (size_t i = 0; i < num_paths; ++i) {
    total_links += paths[i].links.size();
    path_off[i + 1] = static_cast<int32_t>(total_links);
  }
  path_links.resize(total_links);
  path_factor.resize(total_links);
  path_bneck.resize(num_paths);
  for (size_t i = 0; i < num_paths; ++i) {
    double bottleneck = std::numeric_limits<double>::infinity();
    for (int l : paths[i].links) {
      bottleneck = std::min(bottleneck, cap[static_cast<size_t>(l)]);
    }
    path_bneck[i] = bottleneck;
    size_t j = static_cast<size_t>(path_off[i]);
    for (int l : paths[i].links) {
      path_links[j] = l;
      path_factor[j] = 1.0 + epsilon * bottleneck / cap[static_cast<size_t>(l)];
      ++j;
    }
  }
  cp_off.assign(num_commodities + 1, 0);
  cp_ids.reserve(num_paths);
  for (size_t c = 0; c < num_commodities; ++c) {
    for (int pi : flat.commodity_paths[c]) {
      cp_ids.push_back(pi);
    }
    cp_off[c + 1] = static_cast<int32_t>(cp_ids.size());
  }

  // Shared-structure detection (see SolveMcfFptas's commentary in mcf.h):
  // every commodity RouteBlocks emits shares one uplink (first link), one
  // downlink (second-to-last) and its private demand edge (last link) across
  // all of its paths.
  com_first.assign(num_commodities, -1);
  com_penult.assign(num_commodities, -1);
  com_last.assign(num_commodities, -1);
  std::vector<uint8_t> com_structured(num_commodities, 0);
  for (size_t c = 0; c < num_commodities; ++c) {
    bool ok = cp_off[c] != cp_off[c + 1];
    int32_t first = -1, penult = -1, last = -1;
    for (int32_t idx = cp_off[c]; ok && idx < cp_off[c + 1]; ++idx) {
      const int32_t pi = cp_ids[static_cast<size_t>(idx)];
      const int32_t b = path_off[pi], e = path_off[pi + 1];
      if (e - b < 3) {
        ok = false;
        break;
      }
      if (idx == cp_off[c]) {
        first = path_links[static_cast<size_t>(b)];
        penult = path_links[static_cast<size_t>(e - 2)];
        last = path_links[static_cast<size_t>(e - 1)];
      } else if (path_links[static_cast<size_t>(b)] != first ||
                 path_links[static_cast<size_t>(e - 2)] != penult ||
                 path_links[static_cast<size_t>(e - 1)] != last) {
        ok = false;
      }
    }
    if (ok) {
      com_structured[c] = 1;
      com_first[c] = first;
      com_penult[c] = penult;
      com_last[c] = last;
    }
  }
  // Middle segment (everything between the shared first link and shared
  // last two) in CSR form; empty ranges for unstructured commodities' paths.
  mid_off.assign(num_paths + 1, 0);
  mid_links.reserve(total_links);
  for (size_t i = 0; i < num_paths; ++i) {
    if (com_structured[static_cast<size_t>(paths[i].commodity)]) {
      for (int32_t j = path_off[i] + 1; j < path_off[i + 1] - 2; ++j) {
        mid_links.push_back(path_links[static_cast<size_t>(j)]);
      }
    }
    mid_off[i + 1] = static_cast<int32_t>(mid_links.size());
  }

  // Fully unrolled scan kinds for the controller's dominant commodity shapes
  // (kFast3/kFast1): middles padded to exactly two slots with the sentinel
  // edge (index num_edges, length pinned to 0.0 — adding 0.0 to a positive
  // partial sum is bitwise a no-op under round-to-nearest).
  const int32_t sentinel = static_cast<int32_t>(num_edges);
  com_kind.assign(num_commodities, kGeneric);
  fm_base.assign(num_commodities, -1);
  fast_mids.reserve(2 * num_paths);
  for (size_t c = 0; c < num_commodities; ++c) {
    if (!com_structured[c]) {
      continue;
    }
    com_kind[c] = kStructured;
    const int32_t pcount = cp_off[c + 1] - cp_off[c];
    if (pcount != 3 && pcount != 1) {
      continue;
    }
    // At most two middles per path. The fast loops keep every slot's length
    // in a register across a run of pushes, so a real link may also fill
    // only one slot: the shared links and all middles must be distinct.
    bool fast = true;
    int32_t slot_links[9] = {com_first[c], com_penult[c], com_last[c]};
    int num_slots = 3;
    for (int32_t idx = cp_off[c]; fast && idx < cp_off[c + 1]; ++idx) {
      const int32_t pi = cp_ids[static_cast<size_t>(idx)];
      fast = mid_off[pi + 1] - mid_off[pi] <= 2;
      for (int32_t j = mid_off[pi]; fast && j < mid_off[pi + 1]; ++j) {
        slot_links[num_slots++] = mid_links[static_cast<size_t>(j)];
      }
    }
    for (int a = 0; fast && a < num_slots; ++a) {
      for (int b = a + 1; fast && b < num_slots; ++b) {
        fast = slot_links[a] != slot_links[b];
      }
    }
    if (!fast) {
      continue;
    }
    com_kind[c] = pcount == 3 ? kFast3 : kFast1;
    fm_base[c] = static_cast<int32_t>(fast_mids.size());
    for (int32_t idx = cp_off[c]; idx < cp_off[c + 1]; ++idx) {
      const int32_t pi = cp_ids[static_cast<size_t>(idx)];
      for (int32_t j = mid_off[pi]; j < mid_off[pi + 1]; ++j) {
        fast_mids.push_back(mid_links[static_cast<size_t>(j)]);
      }
      for (int32_t pad = mid_off[pi + 1] - mid_off[pi]; pad < 2; ++pad) {
        fast_mids.push_back(sentinel);
      }
    }
  }
  // Padded push rows for the fast kinds: every fast path's link factors as
  // exactly five slots (first, two middles, penultimate, last), sentinel
  // slots carrying factor 1.0 (0.0 * 1.0 == +0.0, bitwise).
  push5_fac.assign(5 * num_paths, 1.0);
  for (size_t c = 0; c < num_commodities; ++c) {
    if (com_kind[c] != kFast3 && com_kind[c] != kFast1) {
      continue;
    }
    for (int32_t idx = cp_off[c]; idx < cp_off[c + 1]; ++idx) {
      const int32_t pi = cp_ids[static_cast<size_t>(idx)];
      double* fac = push5_fac.data() + 5 * static_cast<size_t>(pi);
      for (int32_t j = path_off[pi]; j < path_off[pi + 1]; ++j) {
        // Real width is 3..5; middles shorter than 2 leave sentinel slots in
        // positions 1..2 (already initialized above).
        const int real = path_off[pi + 1] - path_off[pi];
        const int pos = j - path_off[pi];
        const int out = pos == 0 ? 0 : pos >= real - 2 ? pos + (5 - real) : pos;
        fac[out] = path_factor[static_cast<size_t>(j)];
      }
    }
  }

  BuildComponents(flat);
}

void FptasWorkspace::BuildComponents(const FlatMcf& flat) {
  // Union-find over edge ids with path halving and no ranks: b's root goes
  // under a's, so the roots depend only on the (deterministic) merge order.
  std::vector<int32_t> parent(num_edges);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int32_t x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] = parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  // Every edge of every path of a commodity joins the commodity's first
  // edge (a capped commodity's demand edge would do this implicitly;
  // uncapped multi-path commodities need the cross-path union too).
  auto anchor = [&](size_t c) {
    return path_links[static_cast<size_t>(path_off[cp_ids[static_cast<size_t>(cp_off[c])]])];
  };
  for (size_t c = 0; c < num_commodities; ++c) {
    if (cp_off[c] == cp_off[c + 1]) {
      continue;
    }
    const int32_t a = find(anchor(c));
    for (int32_t idx = cp_off[c]; idx < cp_off[c + 1]; ++idx) {
      const int32_t pi = cp_ids[static_cast<size_t>(idx)];
      for (int32_t j = path_off[pi]; j < path_off[pi + 1]; ++j) {
        const int32_t b = find(path_links[static_cast<size_t>(j)]);
        if (b != a) {
          parent[static_cast<size_t>(b)] = a;
        }
      }
    }
  }

  // Components in order of first appearance over ascending commodity ids.
  std::vector<int32_t> root_comp(num_edges, -1);
  com_component.assign(num_commodities, -1);
  com_demand_edge.assign(num_commodities, -1);
  for (size_t c = 0; c < num_commodities; ++c) {
    if (cp_off[c] == cp_off[c + 1]) {
      continue;
    }
    int32_t& comp = root_comp[static_cast<size_t>(find(anchor(c)))];
    if (comp < 0) {
      comp = static_cast<int32_t>(num_components++);
    }
    com_component[c] = comp;
    const int32_t first_path = cp_ids[static_cast<size_t>(cp_off[c])];
    const int32_t last = path_links[static_cast<size_t>(path_off[first_path + 1] - 1)];
    if (static_cast<size_t>(last) >= flat.num_links) {
      com_demand_edge[c] = last;
    }
  }

  // Each component's commodities, ascending (CSR).
  comp_com_off.assign(num_components + 1, 0);
  for (size_t c = 0; c < num_commodities; ++c) {
    if (com_component[c] >= 0) {
      ++comp_com_off[static_cast<size_t>(com_component[c]) + 1];
    }
  }
  for (size_t k = 0; k < num_components; ++k) {
    comp_com_off[k + 1] += comp_com_off[k];
  }
  comp_coms.resize(static_cast<size_t>(comp_com_off[num_components]));
  std::vector<int32_t> next(comp_com_off.begin(), comp_com_off.end() - 1);
  for (size_t c = 0; c < num_commodities; ++c) {
    if (com_component[c] >= 0) {
      comp_coms[static_cast<size_t>(next[static_cast<size_t>(com_component[c])]++)] =
          static_cast<int32_t>(c);
    }
  }
}

FptasLoopStats RunFptasPushLoop(const FlatMcf& flat, const FptasWorkspace& ws,
                                double epsilon, double delta, int64_t max_pushes,
                                std::vector<double>& length, std::vector<double>& raw_flow,
                                std::vector<FptasCertRecord>* cert_log) {
  BDS_CHECK(length.size() == ws.num_edges + 1);
  BDS_CHECK(raw_flow.size() == ws.num_paths);
  FptasLoopStats stats;

  const auto& path_off = ws.path_off;
  const auto& path_links = ws.path_links;
  const auto& path_factor = ws.path_factor;
  const auto& path_bneck = ws.path_bneck;
  const auto& cp_off = ws.cp_off;
  const auto& cp_ids = ws.cp_ids;
  constexpr uint8_t kFast3 = FptasWorkspace::kFast3;
  constexpr uint8_t kFast1 = FptasWorkspace::kFast1;
  constexpr uint8_t kStructured = FptasWorkspace::kStructured;

  // 0.0 understates any real length and forces a first fresh scan.
  std::vector<double> cached_min(ws.num_commodities, 0.0);
  // Commodities with paths, ascending: the round-robin order.
  std::vector<int32_t> active;
  active.reserve(ws.num_commodities);
  for (size_t c = 0; c < ws.num_commodities; ++c) {
    if (cp_off[c] != cp_off[c + 1]) {
      active.push_back(static_cast<int32_t>(c));
    }
  }
  const size_t num_with_paths = active.size();

  // Certified early stop (see the header), per link-sharing component.
  const std::vector<int32_t>& com_component = ws.com_component;
  std::vector<int64_t> comp_checked(ws.num_components, 0);  // Phase of the last check.
  std::vector<uint8_t> comp_stopped(ws.num_components, 0);
  FptasCertifier certifier(flat, ws, epsilon);
  int64_t certified_commodities = 0;

  int64_t pushes = 0;
  double alpha = delta * static_cast<double>(flat.max_len);
  while (alpha < 1.0 && pushes < max_pushes && !active.empty()) {
    ++stats.phases;
    const double threshold = std::min(1.0, alpha * (1.0 + epsilon));
    size_t out = 0;
    for (size_t k = 0; k < active.size(); ++k) {
      const int32_t c = active[k];
      if (cached_min[static_cast<size_t>(c)] >= threshold) {
        // Provably nothing to push: the cached minimum understates the
        // current one. Retire the commodity if even thresholds of 1 are
        // out of reach.
        ++stats.bound_skips;
        if (cached_min[static_cast<size_t>(c)] < 1.0) {
          active[out++] = c;
        }
        continue;
      }
      bool retired = false;
      const uint8_t kind = ws.com_kind[static_cast<size_t>(c)];
      const size_t cs = static_cast<size_t>(c);
      // Shared push + post-push bound check for the structured kinds (see
      // SolveMcfFptas's commentary in mcf.h).
      auto push_path = [&](int32_t best) {
        raw_flow[static_cast<size_t>(best)] += path_bneck[static_cast<size_t>(best)];
        for (int32_t j = path_off[best]; j < path_off[best + 1]; ++j) {
          length[static_cast<size_t>(path_links[static_cast<size_t>(j)])] *=
              path_factor[static_cast<size_t>(j)];
        }
      };
      if (kind == kFast3) {
        // Every real slot is a distinct edge (see the workspace), so a run
        // of pushes works on register copies of the lengths and raw flows
        // -- the same operations in the same order -- and writes them back
        // once. The factors are picked by a branch on the cheapest path,
        // not by its index, so the length updates do not wait on the
        // comparison when the branch predicts.
        const int32_t f0 = ws.com_first[cs], f1 = ws.com_penult[cs], f2 = ws.com_last[cs];
        const int32_t* fm = ws.fast_mids.data() + ws.fm_base[cs];
        const int32_t p0 = cp_ids[static_cast<size_t>(cp_off[c])];
        const int32_t p1 = cp_ids[static_cast<size_t>(cp_off[c]) + 1];
        const int32_t p2 = cp_ids[static_cast<size_t>(cp_off[c]) + 2];
        const double* q0 = ws.push5_fac.data() + 5 * static_cast<size_t>(p0);
        const double* q1 = ws.push5_fac.data() + 5 * static_cast<size_t>(p1);
        const double* q2 = ws.push5_fac.data() + 5 * static_cast<size_t>(p2);
        double* L = length.data();
        double h0 = L[f0], h1 = L[f1], h2 = L[f2];
        double a0 = L[fm[0]], a1 = L[fm[1]], a2 = L[fm[2]];
        double a3 = L[fm[3]], a4 = L[fm[4]], a5 = L[fm[5]];
        double r0 = raw_flow[static_cast<size_t>(p0)];
        double r1 = raw_flow[static_cast<size_t>(p1)];
        double r2 = raw_flow[static_cast<size_t>(p2)];
        for (;;) {
          double s0 = h0 + a0;
          double s1 = h0 + a2;
          double s2 = h0 + a4;
          s0 += a1;
          s1 += a3;
          s2 += a5;
          s0 += h1;
          s1 += h1;
          s2 += h1;
          s0 += h2;
          s1 += h2;
          s2 += h2;
          double m = s0;
          int which = 0;
          if (s1 < m) {
            m = s1;
            which = 1;
          }
          if (s2 < m) {
            m = s2;
            which = 2;
          }
          if (m >= threshold) {
            cached_min[cs] = m;
            retired = m >= 1.0;
            break;
          }
          if (which == 0) {
            r0 += path_bneck[static_cast<size_t>(p0)];
            h0 *= q0[0];
            a0 *= q0[1];
            a1 *= q0[2];
            h1 *= q0[3];
            h2 *= q0[4];
          } else if (which == 1) {
            r1 += path_bneck[static_cast<size_t>(p1)];
            h0 *= q1[0];
            a2 *= q1[1];
            a3 *= q1[2];
            h1 *= q1[3];
            h2 *= q1[4];
          } else {
            r2 += path_bneck[static_cast<size_t>(p2)];
            h0 *= q2[0];
            a4 *= q2[1];
            a5 *= q2[2];
            h1 *= q2[3];
            h2 *= q2[4];
          }
          if (++pushes >= max_pushes) {
            break;
          }
          if (h2 >= threshold) {
            cached_min[cs] = h2;
            retired = h2 >= 1.0;
            ++stats.bound_skips;
            break;
          }
        }
        // Sentinel slots write back their unchanged 0.0.
        L[f0] = h0;
        L[fm[0]] = a0;
        L[fm[1]] = a1;
        L[fm[2]] = a2;
        L[fm[3]] = a3;
        L[fm[4]] = a4;
        L[fm[5]] = a5;
        L[f1] = h1;
        L[f2] = h2;
        raw_flow[static_cast<size_t>(p0)] = r0;
        raw_flow[static_cast<size_t>(p1)] = r1;
        raw_flow[static_cast<size_t>(p2)] = r2;
      } else if (kind == kFast1) {
        // As kFast3, with one path.
        const int32_t f0 = ws.com_first[cs], f1 = ws.com_penult[cs], f2 = ws.com_last[cs];
        const int32_t* fm = ws.fast_mids.data() + ws.fm_base[cs];
        const int32_t p0 = cp_ids[static_cast<size_t>(cp_off[c])];
        const double* q0 = ws.push5_fac.data() + 5 * static_cast<size_t>(p0);
        const double bneck = path_bneck[static_cast<size_t>(p0)];
        double* L = length.data();
        double h0 = L[f0], h1 = L[f1], h2 = L[f2];
        double a0 = L[fm[0]], a1 = L[fm[1]];
        double r0 = raw_flow[static_cast<size_t>(p0)];
        for (;;) {
          double s0 = h0 + a0;
          s0 += a1;
          s0 += h1;
          s0 += h2;
          if (s0 >= threshold) {
            cached_min[cs] = s0;
            retired = s0 >= 1.0;
            break;
          }
          r0 += bneck;
          h0 *= q0[0];
          a0 *= q0[1];
          a1 *= q0[2];
          h1 *= q0[3];
          h2 *= q0[4];
          if (++pushes >= max_pushes) {
            break;
          }
          if (h2 >= threshold) {
            cached_min[cs] = h2;
            retired = h2 >= 1.0;
            ++stats.bound_skips;
            break;
          }
        }
        L[f0] = h0;
        L[fm[0]] = a0;
        L[fm[1]] = a1;
        L[f1] = h1;
        L[f2] = h2;
        raw_flow[static_cast<size_t>(p0)] = r0;
      } else {
        const bool structured = kind == kStructured;
        for (;;) {
          // Fresh scan of the commodity's paths, in path then link order —
          // the exact operation sequence (and so the exact doubles) of the
          // reference's rescan. Strict < keeps the first-wins tie-break.
          double m = std::numeric_limits<double>::infinity();
          int32_t best = -1;
          if (structured) {
            const double h0 = length[static_cast<size_t>(ws.com_first[cs])];
            const double h1 = length[static_cast<size_t>(ws.com_penult[cs])];
            const double h2 = length[static_cast<size_t>(ws.com_last[cs])];
            for (int32_t idx = cp_off[c]; idx < cp_off[c + 1]; ++idx) {
              const int32_t pi = cp_ids[static_cast<size_t>(idx)];
              double s = h0;
              for (int32_t j = ws.mid_off[pi]; j < ws.mid_off[pi + 1]; ++j) {
                s += length[static_cast<size_t>(ws.mid_links[static_cast<size_t>(j)])];
              }
              s += h1;
              s += h2;
              if (s < m) {
                m = s;
                best = pi;
              }
            }
          } else {
            for (int32_t idx = cp_off[c]; idx < cp_off[c + 1]; ++idx) {
              const int32_t pi = cp_ids[static_cast<size_t>(idx)];
              double s = 0.0;
              for (int32_t j = path_off[pi]; j < path_off[pi + 1]; ++j) {
                s += length[static_cast<size_t>(path_links[static_cast<size_t>(j)])];
              }
              if (s < m) {
                m = s;
                best = pi;
              }
            }
          }
          if (m >= threshold) {
            cached_min[cs] = m;
            retired = m >= 1.0;
            break;
          }
          push_path(best);
          if (++pushes >= max_pushes) {
            break;
          }
          if (structured) {
            const double lb = length[static_cast<size_t>(ws.com_last[cs])];
            if (lb >= threshold) {
              cached_min[cs] = lb;
              retired = lb >= 1.0;
              ++stats.bound_skips;
              break;
            }
          }
        }
      }
      if (!retired) {
        active[out++] = c;
      }
      if (pushes >= max_pushes) {
        for (size_t k2 = k + 1; k2 < active.size(); ++k2) {
          active[out++] = active[k2];
        }
        break;
      }
    }
    active.resize(out);

    if (IsCertCheckPhase(stats.phases) && pushes < max_pushes) {
      bool stopped = false;
      for (int32_t c : active) {
        const size_t k = static_cast<size_t>(com_component[static_cast<size_t>(c)]);
        if (comp_checked[k] == stats.phases) {
          continue;
        }
        comp_checked[k] = stats.phases;
        const FptasCertRecord rec =
            certifier.Check(ws.ComponentCommodities(k), stats.phases, length.data(),
                            raw_flow.data());
        ++stats.cert_checks;
        if (cert_log != nullptr) {
          cert_log->push_back(rec);
        }
        if (rec.certified) {
          comp_stopped[k] = 1;
          ++stats.certified_stops;
          stopped = true;
        }
      }
      if (stopped) {
        out = 0;
        for (int32_t c : active) {
          if (comp_stopped[static_cast<size_t>(com_component[static_cast<size_t>(c)])]) {
            ++certified_commodities;
          } else {
            active[out++] = c;
          }
        }
        active.resize(out);
      }
    }
    alpha *= 1.0 + epsilon;
  }

  stats.pushes = pushes;
  stats.commodities_retired =
      static_cast<int64_t>(num_with_paths - active.size()) - certified_commodities;
  return stats;
}

}  // namespace mcf_internal
}  // namespace bds
