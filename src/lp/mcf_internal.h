// Shared internals of the Fleischer/Garg–Könemann FPTAS.
//
// SolveMcfFptas runs the tuned push loop and the test oracle
// (tests/oracles/fptas_oracle.h) runs the straightforward loop; both use the
// same multiplicative-weights dynamics over the same flattened instance.
// This header exposes the pieces they share so the two are bit-compatible
// by construction:
//
//  * FlatMcf / FlattenMcf — the flattened form (demands reduced to virtual
//    edges, dead paths dropped). Every derived constant of the algorithm —
//    delta, the alpha phase ladder, the push budget — is a function of THIS
//    struct, so two solvers sharing one FlatMcf share the exact numeric
//    trajectory.
//  * FptasWorkspace — the CSR layout + structured-shape acceleration tables
//    of the tuned solver, plus the link-sharing components, precomputed once
//    per instance.
//  * RunFptasPushLoop — the tuned phase loop over every commodity. Its push
//    sequence (same doubles, same order per commodity) is the reference
//    loop's; only the bookkeeping that proves a scan unnecessary differs.
//  * FptasCertifier — the per-component early stop: a component stops
//    pushing once a weak-duality bound computed from its current lengths
//    proves that its finalized flow is within 1/(1 + eps/10) of its
//    optimum. The check reads only the component's own lengths and raw
//    flow, so both solvers stop a component at the same phase.
//  * FinalizeFptas — per-component feasibility normalization + two greedy
//    augmentation rounds, a pure function of (flat, raw_flow).
//
// Everything here is an implementation detail: no stability promised.

#ifndef BDS_SRC_LP_MCF_INTERNAL_H_
#define BDS_SRC_LP_MCF_INTERNAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/lp/mcf.h"

namespace bds {
namespace mcf_internal {

// Flattened form of an McfInstance: paths with one virtual "demand edge"
// appended per capped commodity so demands reduce to ordinary capacities
// (standard reduction). Dead paths (through a zero-capacity edge) are
// dropped here so every solver sees the same path set.
struct FlatPath {
  int commodity;
  int path_index;
  std::vector<int> links;  // Includes the virtual demand edge if any.
};

struct FlatMcf {
  // Real links first (cap[0, num_links) mirrors McfInstance::capacities),
  // then one demand edge per capped commodity.
  std::vector<double> cap;
  size_t num_links = 0;
  std::vector<FlatPath> paths;
  // Flattened path ids grouped by commodity, in path order.
  std::vector<std::vector<int>> commodity_paths;
  size_t max_len = 1;

  size_t num_edges() const { return cap.size(); }
};

FlatMcf FlattenMcf(const McfInstance& instance);

// Garg–Könemann initialization; depends on the flattened edge count.
double FptasDelta(const FlatMcf& flat, double epsilon);

// Push-count cap shared by the solvers (bounds a wedged multiplicative-
// weights loop; generous against the theoretical phase bound).
int64_t MaxPushes(const FlatMcf& flat, double epsilon, double delta);

// An all-zero result shaped like `instance` (ok stays false).
McfResult MakeEmptyFptasResult(const McfInstance& instance);

// Precomputed acceleration tables for RunFptasPushLoop (the tuned solver's
// CSR layout, per-path bottlenecks/factors, structured-shape detection and
// padded fast rows) and the instance's link-sharing components. Pure
// function of (flat, epsilon); read-only during the loop.
struct FptasWorkspace {
  FptasWorkspace(const FlatMcf& flat, double epsilon);

  size_t num_edges = 0;
  size_t num_paths = 0;
  size_t num_commodities = 0;
  // CSR: path i's links at path_links[path_off[i] .. path_off[i+1]).
  std::vector<int32_t> path_off;
  std::vector<int32_t> path_links;
  std::vector<double> path_factor;  // Per-link length multiplier of a push.
  std::vector<double> path_bneck;   // Static bottleneck capacity per path.
  // CSR: commodity c's path ids at cp_ids[cp_off[c] .. cp_off[c+1]).
  std::vector<int32_t> cp_off;
  std::vector<int32_t> cp_ids;
  // Structured-shape tables (shared first/penultimate/last links; see
  // SolveMcfFptas's commentary).
  std::vector<int32_t> com_first;
  std::vector<int32_t> com_penult;
  std::vector<int32_t> com_last;
  std::vector<uint8_t> com_kind;  // kGeneric/kStructured/kFast3/kFast1.
  std::vector<int32_t> mid_off;
  std::vector<int32_t> mid_links;
  std::vector<int32_t> fm_base;
  std::vector<int32_t> fast_mids;
  std::vector<double> push5_fac;

  // Link-sharing components: commodities whose paths share an edge,
  // directly or transitively (a commodity's demand edge and all its paths
  // land in one component). Numbered by first appearance over ascending
  // commodity ids; commodities without paths belong to none (-1).
  size_t num_components = 0;
  std::vector<int32_t> com_component;
  std::vector<int32_t> com_demand_edge;  // -1: uncapped.
  // CSR: component k's commodities, ascending, at
  // comp_coms[comp_com_off[k] .. comp_com_off[k+1]).
  std::vector<int32_t> comp_com_off;
  std::vector<int32_t> comp_coms;

  std::span<const int32_t> ComponentCommodities(size_t k) const {
    return {comp_coms.data() + comp_com_off[k], comp_coms.data() + comp_com_off[k + 1]};
  }

  static constexpr uint8_t kGeneric = 0, kStructured = 1, kFast3 = 2, kFast1 = 3;

 private:
  void BuildComponents(const FlatMcf& flat);
};

// Scale-free finalize of the raw flow, one link-sharing component
// at a time: divide the component's flow and edge loads by its maximum edge
// congestion, then top each path up with its residual slack (two greedy
// rounds in path order), making the flow maximal. Scatters into `result`
// and accumulates total_flow in flat path order.
void FinalizeFptas(const FlatMcf& flat, const FptasWorkspace& ws,
                   std::vector<double>& raw_flow, McfResult& result);

// One certificate evaluation, as recorded by RunFptasPushLoop's cert_log.
struct FptasCertRecord {
  int32_t component = -1;  // Link-sharing component of the checked set.
  int64_t phase = 0;       // Loop phase (1-based) at whose end it ran.
  double primal = 0.0;     // Finalized total of the set's raw flow.
  double bound = 0.0;      // The weak-duality bound of the lengths.
  bool certified = false;  // primal * (1 + eps/10) >= bound.
};

// Certificate checks run at the end of phases 1, 2, 4, 8, ... — at most
// about log2(phases) per solve.
inline bool IsCertCheckPhase(int64_t phase) { return phase > 0 && (phase & (phase - 1)) == 0; }

// Evaluates the early-stop certificate of a commodity set (ascending ids; a
// whole component): its primal is the set's current raw flow finalized
// exactly as FinalizeFptas finalizes a component — what the solve will
// return — and its
// bound is a weak-duality bound from the current lengths (DualBound below).
// Owns the scratch buffers (allocated on first use); one instance per loop.
class FptasCertifier {
 public:
  FptasCertifier(const FlatMcf& flat, const FptasWorkspace& ws, double epsilon);
  FptasCertRecord Check(std::span<const int32_t> coms, int64_t phase, const double* length,
                        const double* raw_flow);

 private:
  // Weak-duality upper bound on the max flow of the commodities `coms` alone
  // (against the full capacities) under the real-link lengths `length`: with
  // m_c the cheapest real-link path length of commodity c and d_c its demand,
  //   UB = min_s [ sum_e cap_e * length_e / s + sum_capped d_c * max(0, 1 - m_c/s) ]
  // over s <= min m_c of the uncapped commodities (dual y_e = length_e / s on
  // the real links of their paths, y = max(0, 1 - m_c/s) on c's demand edge).
  // The objective is convex piecewise linear in 1/s, so evaluating the
  // breakpoints s = m_c, the cap s = min uncapped m_c, and (all capped) the
  // limit sum d_c suffices.
  double DualBound(std::span<const int32_t> coms, const double* length);

  const FlatMcf& flat_;
  const FptasWorkspace& ws_;
  double tolerance_;
  std::vector<double> flow_;
  std::vector<double> raw_load_;
  std::vector<double> load_;
  std::vector<uint8_t> seen_;
};

struct FptasLoopStats {
  int64_t pushes = 0;
  int64_t phases = 0;
  int64_t bound_skips = 0;
  int64_t commodities_retired = 0;
  int64_t cert_checks = 0;      // Component certificate evaluations.
  int64_t certified_stops = 0;  // Components stopped by a certificate.
};

// The tuned Fleischer phase loop over every commodity with paths, in
// ascending id order. Reads and multiplies `length` (size
// flat.num_edges() + 1; the last slot is the sentinel padding edge and must
// be 0.0) and accumulates into `raw_flow` (size flat.num_paths()). delta
// and max_pushes come from FptasDelta / MaxPushes; the loop stops after
// max_pushes pushes even if the ladder is unfinished (a safety cap on a
// wedged multiplicative-weights loop; tests pass smaller budgets).
//
// Certified early stop: at the end of phases 1, 2, 4, ... the loop checks
// every component that still has an active commodity; a certified
// component stops pushing.
//
// Parity contract: the pushes, and so the raw flow, are bit-identical to
// the reference loop's under the same budget (tests/oracles/fptas_oracle.h).
//
// Test seam: `cert_log`, when non-null, gets every certificate evaluation
// appended.
FptasLoopStats RunFptasPushLoop(const FlatMcf& flat, const FptasWorkspace& ws,
                                double epsilon, double delta, int64_t max_pushes,
                                std::vector<double>& length, std::vector<double>& raw_flow,
                                std::vector<FptasCertRecord>* cert_log = nullptr);

}  // namespace mcf_internal
}  // namespace bds

#endif  // BDS_SRC_LP_MCF_INTERNAL_H_
