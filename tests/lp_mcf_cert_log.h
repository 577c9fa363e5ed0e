// Test helper shared by the FPTAS suites: runs the tuned push loop over
// every commodity, exactly as SolveMcfFptas does, and records every
// certificate evaluation of the early stop.

#ifndef BDS_TESTS_LP_MCF_CERT_LOG_H_
#define BDS_TESTS_LP_MCF_CERT_LOG_H_

#include <cstdint>
#include <vector>

#include "src/lp/mcf.h"
#include "src/lp/mcf_internal.h"

namespace bds {

struct CertificateRun {
  // Commodities of each link-sharing component, ascending; indexed by
  // FptasCertRecord::component.
  std::vector<std::vector<int>> components;
  std::vector<mcf_internal::FptasCertRecord> log;
};

inline CertificateRun RunCertificateLog(const McfInstance& inst, double eps) {
  const mcf_internal::FlatMcf flat = mcf_internal::FlattenMcf(inst);
  const mcf_internal::FptasWorkspace ws(flat, eps);
  CertificateRun run;
  run.components.resize(ws.num_components);
  for (size_t k = 0; k < ws.num_components; ++k) {
    run.components[k].assign(ws.ComponentCommodities(k).begin(),
                             ws.ComponentCommodities(k).end());
  }
  const double delta = mcf_internal::FptasDelta(flat, eps);
  std::vector<double> length(flat.num_edges() + 1, 0.0);
  for (size_t l = 0; l < flat.num_edges(); ++l) {
    length[l] = delta / flat.cap[l];
  }
  std::vector<double> raw_flow(flat.paths.size(), 0.0);
  mcf_internal::FptasLoopControl control;
  control.cert_log = &run.log;
  mcf_internal::RunFptasPushLoop(flat, ws, eps, delta, mcf_internal::MaxPushes(flat, eps, delta),
                                 length, raw_flow, &control);
  return run;
}

}  // namespace bds

#endif  // BDS_TESTS_LP_MCF_CERT_LOG_H_
