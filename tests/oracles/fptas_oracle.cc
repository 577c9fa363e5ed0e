#include "tests/oracles/fptas_oracle.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/status.h"
#include "src/lp/mcf_internal.h"
#include "src/telemetry/telemetry.h"

namespace bds {

using mcf_internal::FlatMcf;
using mcf_internal::FlatPath;
using mcf_internal::FlattenMcf;
using mcf_internal::FptasWorkspace;

McfResult SolveMcfFptasReference(const McfInstance& instance, double epsilon,
                                  int64_t max_pushes) {
  BDS_CHECK_MSG(epsilon > 0.0 && epsilon <= 0.5, "epsilon must be in (0, 0.5]");
  BDS_TIMED_SCOPE("fptas.reference");
  McfResult result = mcf_internal::MakeEmptyFptasResult(instance);
  const FlatMcf flat = FlattenMcf(instance);
  const std::vector<double>& cap = flat.cap;
  const std::vector<FlatPath>& paths = flat.paths;
  result.ok = true;
  if (paths.empty()) {
    return result;  // Nothing can flow.
  }

  const size_t num_edges = flat.num_edges();
  const double delta = mcf_internal::FptasDelta(flat, epsilon);
  // Only for the shared component tables, certificate and finalize.
  const FptasWorkspace ws(flat, epsilon);
  std::vector<double> length(num_edges);
  for (size_t l = 0; l < num_edges; ++l) {
    length[l] = delta / cap[l];
  }
  std::vector<double> raw_flow(paths.size(), 0.0);

  auto path_length = [&](const FlatPath& p) {
    double s = 0.0;
    for (int l : p.links) {
      s += length[static_cast<size_t>(l)];
    }
    return s;
  };

  // Fleischer's phase structure [17]: instead of a global shortest-path
  // search per push (Garg-Koenemann), iterate the commodities round-robin
  // against a threshold alpha that grows by (1 + eps) per phase. A
  // commodity keeps pushing along its cheapest path while that path is
  // shorter than min(1, alpha * (1 + eps)); when every commodity's cheapest
  // path reaches 1 the algorithm stops. A link-sharing component also stops
  // once its certificate holds (checked at the end of phases 1, 2, 4, ...).
  if (max_pushes <= 0) {
    max_pushes = mcf_internal::MaxPushes(flat, epsilon, delta);
  }
  int64_t pushes = 0;
  int64_t phases = 0;
  mcf_internal::FptasCertifier certifier(flat, ws, epsilon);
  std::vector<uint8_t> stopped(ws.num_components, 0);
  size_t num_stopped = 0;
  int64_t cert_checks = 0;
  double alpha = delta * static_cast<double>(flat.max_len);
  while (alpha < 1.0 && pushes < max_pushes && num_stopped < ws.num_components) {
    ++phases;
    double threshold = std::min(1.0, alpha * (1.0 + epsilon));
    for (size_t c = 0; c < flat.commodity_paths.size() && pushes < max_pushes; ++c) {
      if (ws.com_component[c] >= 0 && stopped[static_cast<size_t>(ws.com_component[c])]) {
        continue;  // Certified: its component pushes no more.
      }
      for (;;) {
        // Cheapest of this commodity's paths.
        int best = -1;
        double best_len = threshold;
        for (int pi : flat.commodity_paths[c]) {
          double len = path_length(paths[static_cast<size_t>(pi)]);
          if (len < best_len) {
            best_len = len;
            best = pi;
          }
        }
        if (best < 0) {
          break;  // Nothing under the threshold; next commodity.
        }
        const FlatPath& p = paths[static_cast<size_t>(best)];
        double bottleneck = std::numeric_limits<double>::infinity();
        for (int l : p.links) {
          bottleneck = std::min(bottleneck, cap[static_cast<size_t>(l)]);
        }
        raw_flow[static_cast<size_t>(best)] += bottleneck;
        for (int l : p.links) {
          length[static_cast<size_t>(l)] *=
              1.0 + epsilon * bottleneck / cap[static_cast<size_t>(l)];
        }
        if (++pushes >= max_pushes) {
          break;
        }
      }
    }
    if (mcf_internal::IsCertCheckPhase(phases) && pushes < max_pushes) {
      for (size_t k = 0; k < ws.num_components; ++k) {
        if (stopped[k]) {
          continue;
        }
        ++cert_checks;
        if (certifier.Check(ws.ComponentCommodities(k), phases, length.data(), raw_flow.data())
                .certified) {
          stopped[k] = 1;
          ++num_stopped;
        }
      }
    }
    alpha *= 1.0 + epsilon;
  }

  BDS_TELEMETRY_COUNT("fptas.reference.solves", 1);
  BDS_TELEMETRY_COUNT("fptas.reference.pushes", pushes);
  BDS_TELEMETRY_COUNT("fptas.reference.phases", phases);
  BDS_TELEMETRY_COUNT("fptas.reference.cert_checks", cert_checks);
  BDS_TELEMETRY_COUNT("fptas.reference.certified_stops", static_cast<int64_t>(num_stopped));
  telemetry::TraceInstant("fptas.reference", "lp",
                          {{"commodities", static_cast<double>(flat.commodity_paths.size())},
                           {"paths", static_cast<double>(paths.size())},
                           {"pushes", static_cast<double>(pushes)},
                           {"phases", static_cast<double>(phases)}});
  mcf_internal::FinalizeFptas(flat, ws, raw_flow, result);
  return result;
}

}  // namespace bds
