// Reference FPTAS for the routing solver's parity suites.
//
// SolveMcfFptas (src/lp/mcf.h) is a performance rewrite of the
// straightforward Fleischer loop below: a full rescan of a commodity's path
// lengths per push, every uncertified commodity visited every phase. It
// shares the flattened instance, the certificate and the finalize with the
// tuned solver and stops each component at the same phase, so the two must
// agree bit for bit on every per-path flow.
//
// `max_pushes` > 0 replaces the solver's push budget (MaxPushes): the loop
// stops after that many pushes, as the tuned loop does at the same budget.

#ifndef BDS_TESTS_ORACLES_FPTAS_ORACLE_H_
#define BDS_TESTS_ORACLES_FPTAS_ORACLE_H_

#include <cstdint>

#include "src/lp/mcf.h"

namespace bds {

McfResult SolveMcfFptasReference(const McfInstance& instance, double epsilon = 0.1,
                                  int64_t max_pushes = 0);

}  // namespace bds

#endif  // BDS_TESTS_ORACLES_FPTAS_ORACLE_H_
