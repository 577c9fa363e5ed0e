// Path-based multicommodity flow.
//
// BDS's routing step (§4.4) maximizes the total volume sent per cycle across
// explicitly enumerated overlay paths, subject to link capacities and
// per-commodity demands (a block only has ρ(b) bytes to send). Two solvers:
//
//  * SolveMcfSimplex — exact LP, used as ground truth and as the slow
//    baseline;
//  * SolveMcfFptas   — the Garg–Könemann / Fleischer width-independent FPTAS
//    the paper adopts ([17,18] in §4.4), returning a (1-eps)-optimal flow in
//    time independent of the number of commodities, and stopping each
//    link-sharing component as soon as a duality bound certifies it.

#ifndef BDS_SRC_LP_MCF_H_
#define BDS_SRC_LP_MCF_H_

#include <vector>

#include "src/common/status.h"
#include "src/lp/simplex.h"

namespace bds {

struct McfPath {
  // Indices into McfInstance::capacities.
  std::vector<int> links;
};

struct McfCommodity {
  // Upper bound on this commodity's total flow; < 0 means uncapped.
  double demand = -1.0;
  std::vector<McfPath> paths;
};

struct McfInstance {
  std::vector<double> capacities;
  std::vector<McfCommodity> commodities;

  int num_links() const { return static_cast<int>(capacities.size()); }
  int num_commodities() const { return static_cast<int>(commodities.size()); }
  int num_paths() const;
};

struct McfResult {
  bool ok = false;
  double total_flow = 0.0;
  // flow[c][p] = flow on commodity c's p-th path.
  std::vector<std::vector<double>> flow;

  // Total flow of one commodity.
  double CommodityFlow(int c) const;
};

// Exact solution via the dense simplex. Exponentially slower than the FPTAS
// as instances grow; intended for verification and Fig 13a's baseline curve.
McfResult SolveMcfSimplex(const McfInstance& instance, const SimplexOptions& options = {});

// Garg–Könemann FPTAS in Fleischer's phase form: total flow >= (1 - epsilon)
// * optimum, capacities and demands respected exactly. epsilon in (0, 0.5].
//
// Certified early stop: commodities couple only through shared links, so
// each link-sharing component runs its own Fleischer ladder. At the end of
// phases 1, 2, 4, 8, ... a component whose finalized flow is provably
// within 1/(1 + epsilon/10) of its optimum stops pushing. The proof is weak
// duality: the current edge lengths, scaled by one free factor s, plus one
// dual variable per commodity demand, form a feasible dual whose value
// bounds the component's optimum from above. A component that never
// certifies runs the full ladder. The finalize normalizes each component
// by its own maximum edge congestion (no theoretical scale factor) and tops
// paths up with two greedy rounds, so the returned flow is feasible and
// maximal either way.
//
// The loop (mcf_internal::RunFptasPushLoop) runs over a flat CSR form with
// incrementally maintained lower bounds: path links, per-link weight
// factors, and bottleneck capacities are precomputed once; commodities whose
// paths share endpoint links (the controller's universal shape) get
// branch-free unrolled scans and a post-push last-link bound that skips the
// confirmation rescan; a per-commodity cached minimum retires or skips
// commodities whole phases at a time. The push sequence — and therefore
// every per-path flow — is bit-identical to the straightforward Fleischer
// loop kept as the test oracle (tests/oracles/fptas_oracle.h).
//
// The solve is one serial loop over every commodity, whatever the
// controller's shard count (sharding splits selection only; DESIGN.md
// §9.5).
McfResult SolveMcfFptas(const McfInstance& instance, double epsilon = 0.1);

// Validation helper shared by tests: largest relative link-capacity
// violation of `result` against `instance` (0 = fully feasible).
double MaxCapacityViolation(const McfInstance& instance, const McfResult& result);

}  // namespace bds

#endif  // BDS_SRC_LP_MCF_H_
