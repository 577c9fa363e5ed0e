// Bit-exactness property tests for the incremental FPTAS.
//
// SolveMcfFptas is a performance rewrite of SolveMcfFptasReference
// (tests/oracles/fptas_oracle.h): same Fleischer phase structure, same push
// sequence, different bookkeeping (CSR layout, shared-structure scan
// unrolling, post-push lower-bound skips). Its contract is that every
// per-path flow is bit-identical to the reference — not merely close —
// because the controller's decision fingerprints hash raw rate doubles.
//
// The generator below deliberately produces every scan kind the solver
// specializes:
//  * controller-shaped commodities (1 or 3 paths sharing first/penultimate/
//    last link with at most two middle links) — the unrolled fast kinds;
//  * shared-endpoint commodities with longer middles or other path counts —
//    the hoisted structured kind;
//  * free-form commodities (short paths, differing endpoints, mixed
//    lengths) — the generic kind;
//  * byte-scale controller-shaped commodities sharing their end links, some
//    with a middle link on two paths (barred from the fast kinds);
// plus capped and uncapped demands, zero-capacity (dead) links, and
// single-link paths. Hand-built instances pin the component structure the
// certified early stop works on: several private-link components, one
// contended component, and two contended components that certify at
// different phases. A budgeted run of the push loop covers its push cap.
// The McfShardTest cases keep the names of the former sharded-solve suite:
// the solve now runs one loop for every shard count, and what is left of
// that suite's contract is one result whichever thread calls it.

#include "src/lp/mcf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/lp/mcf_internal.h"
#include "tests/lp_mcf_cert_log.h"
#include "tests/oracles/fptas_oracle.h"

namespace bds {
namespace {

// A controller-shaped commodity: `npaths` paths sharing uplink/downlink/
// demand-edge-like structure over a pool of `wan` middle links.
McfCommodity StructuredCommodity(Rng& rng, McfInstance& inst, int npaths, int max_mid) {
  McfCommodity com;
  const int up = static_cast<int>(inst.capacities.size());
  inst.capacities.push_back(rng.Uniform(5.0, 50.0));
  const int down = static_cast<int>(inst.capacities.size());
  inst.capacities.push_back(rng.Uniform(5.0, 50.0));
  for (int p = 0; p < npaths; ++p) {
    McfPath path;
    path.links.push_back(up);
    const int mids = static_cast<int>(rng.UniformInt(0, max_mid));
    for (int m = 0; m < mids; ++m) {
      const int wan = static_cast<int>(inst.capacities.size());
      inst.capacities.push_back(rng.Uniform(20.0, 200.0));
      path.links.push_back(wan);
    }
    path.links.push_back(down);
    com.paths.push_back(path);
  }
  if (rng.Bernoulli(0.8)) {
    com.demand = rng.Uniform(0.5, 10.0);
  }
  return com;
}

// A free-form commodity: arbitrary lengths over a shared link pool,
// occasionally through a dead (zero-capacity) link.
McfCommodity GenericCommodity(Rng& rng, const std::vector<int>& pool, int dead_link) {
  McfCommodity com;
  const int npaths = static_cast<int>(rng.UniformInt(1, 4));
  for (int p = 0; p < npaths; ++p) {
    McfPath path;
    // Distinct links per path (a path never crosses one link twice); drawn
    // by shuffling a copy of the pool.
    std::vector<int> deck = pool;
    rng.Shuffle(deck);
    const int len = static_cast<int>(
        rng.UniformInt(1, std::min<int64_t>(6, static_cast<int64_t>(deck.size()))));
    path.links.assign(deck.begin(), deck.begin() + len);
    if (dead_link >= 0 && rng.Bernoulli(0.1)) {
      path.links.push_back(dead_link);
    }
    com.paths.push_back(path);
  }
  if (rng.Bernoulli(0.5)) {
    com.demand = rng.Uniform(0.5, 20.0);
  }
  return com;
}

McfInstance RandomInstance(uint64_t seed) {
  Rng rng(seed);
  McfInstance inst;
  // Shared link pool for the generic commodities.
  std::vector<int> pool;
  const int pool_size = static_cast<int>(rng.UniformInt(3, 12));
  for (int l = 0; l < pool_size; ++l) {
    pool.push_back(static_cast<int>(inst.capacities.size()));
    inst.capacities.push_back(rng.Uniform(1.0, 100.0));
  }
  int dead_link = -1;
  if (rng.Bernoulli(0.3)) {
    dead_link = static_cast<int>(inst.capacities.size());
    inst.capacities.push_back(0.0);
  }
  const int ncom = static_cast<int>(rng.UniformInt(2, 14));
  for (int c = 0; c < ncom; ++c) {
    switch (rng.UniformInt(0, 3)) {
      case 0:  // Controller shape, unrolled 3-path kind.
        inst.commodities.push_back(StructuredCommodity(rng, inst, 3, 2));
        break;
      case 1:  // Controller shape, unrolled 1-path kind.
        inst.commodities.push_back(StructuredCommodity(rng, inst, 1, 2));
        break;
      case 2:  // Shared endpoints but long middles / odd path count.
        inst.commodities.push_back(StructuredCommodity(
            rng, inst, static_cast<int>(rng.UniformInt(2, 5)), 4));
        break;
      default:
        inst.commodities.push_back(GenericCommodity(rng, pool, dead_link));
        break;
    }
  }
  return inst;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectBitwiseEqual(const McfResult& fast, const McfResult& ref, const char* what,
                        uint64_t seed) {
  ASSERT_EQ(fast.ok, ref.ok) << what << " seed " << seed;
  ASSERT_EQ(fast.flow.size(), ref.flow.size()) << what << " seed " << seed;
  for (size_t c = 0; c < ref.flow.size(); ++c) {
    ASSERT_EQ(fast.flow[c].size(), ref.flow[c].size()) << what << " seed " << seed;
    for (size_t p = 0; p < ref.flow[c].size(); ++p) {
      ASSERT_EQ(Bits(fast.flow[c][p]), Bits(ref.flow[c][p]))
          << what << " seed " << seed << " commodity " << c << " path " << p << ": "
          << fast.flow[c][p] << " vs " << ref.flow[c][p];
    }
  }
  ASSERT_EQ(Bits(fast.total_flow), Bits(ref.total_flow)) << what << " seed " << seed;
}

// Appends one link-sharing component: every commodity's paths cross a
// fresh shared backbone link.
void AddContendedComponent(Rng& rng, McfInstance& inst, int ncom) {
  const int backbone = static_cast<int>(inst.capacities.size());
  inst.capacities.push_back(rng.Uniform(50.0, 100.0));
  for (int c = 0; c < ncom; ++c) {
    McfCommodity com;
    const int npaths = static_cast<int>(rng.UniformInt(1, 3));
    for (int p = 0; p < npaths; ++p) {
      McfPath path;
      const int up = static_cast<int>(inst.capacities.size());
      inst.capacities.push_back(rng.Uniform(5.0, 50.0));
      path.links.push_back(up);
      path.links.push_back(backbone);
      com.paths.push_back(path);
    }
    com.demand = rng.Uniform(0.5, 10.0);
    inst.commodities.push_back(com);
  }
}

TEST(McfFptasParityTest, RandomInstancesMatchReferenceBitForBit) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    McfInstance inst = RandomInstance(seed);
    ExpectBitwiseEqual(SolveMcfFptas(inst, 0.1), SolveMcfFptasReference(inst, 0.1), "random",
                       seed);
  }
}

TEST(McfFptasParityTest, VariedEpsilonsMatchReferenceBitForBit) {
  for (double epsilon : {0.05, 0.1, 0.25, 0.5}) {
    for (uint64_t seed = 100; seed < 105; ++seed) {
      McfInstance inst = RandomInstance(seed);
      SCOPED_TRACE(testing::Message() << "eps " << epsilon);
      ExpectBitwiseEqual(SolveMcfFptas(inst, epsilon), SolveMcfFptasReference(inst, epsilon),
                         "varied epsilon", seed);
    }
  }
}

// The controller's own shape at its byte-scale capacities: commodities
// between a few source and destination servers share their uplinks and
// downlinks and run ~100 pushes per phase-1 visit, which the fast kinds
// take on register-held lengths. Some 3-path commodities route two paths
// over one middle link; such a commodity may not take a fast kind and must
// still match through the structured scan.
McfInstance SharedEndpointByteScaleInstance(uint64_t seed, int* aliased) {
  Rng rng(seed);
  McfInstance inst;
  auto add_link = [&](double lo, double hi) {
    inst.capacities.push_back(rng.Uniform(lo, hi));
    return static_cast<int>(inst.capacities.size()) - 1;
  };
  std::vector<int> up, down, wan;
  for (int i = 0; i < 4; ++i) {
    up.push_back(add_link(1e7, 4e7));
    down.push_back(add_link(1e7, 4e7));
  }
  for (int i = 0; i < 8; ++i) {
    wan.push_back(add_link(1e8, 2e9));
  }
  const int ncom = static_cast<int>(rng.UniformInt(8, 24));
  for (int c = 0; c < ncom; ++c) {
    McfCommodity com;
    const int u = up[static_cast<size_t>(rng.UniformInt(0, 3))];
    const int d = down[static_cast<size_t>(rng.UniformInt(0, 3))];
    const int npaths = rng.Bernoulli(0.25) ? 1 : 3;
    const bool alias = npaths == 3 && rng.Bernoulli(0.2);
    *aliased += alias ? 1 : 0;
    for (int p = 0; p < npaths; ++p) {
      McfPath path;
      path.links.push_back(u);
      if (alias && p > 0) {
        path.links.push_back(wan[0]);
      } else {
        const int mids = static_cast<int>(rng.UniformInt(0, 2));
        auto picks = rng.SampleWithoutReplacement(static_cast<int64_t>(wan.size()), mids);
        for (int64_t m : picks) {
          path.links.push_back(wan[static_cast<size_t>(m)]);
        }
      }
      path.links.push_back(d);
      com.paths.push_back(std::move(path));
    }
    if (rng.Bernoulli(0.9)) {
      com.demand = rng.Uniform(2e5, 5e6);
    }
    inst.commodities.push_back(std::move(com));
  }
  return inst;
}

TEST(McfFptasParityTest, SharedEndpointsAtByteScaleMatchReferenceBitForBit) {
  int aliased = 0;
  for (uint64_t seed = 300; seed < 330; ++seed) {
    McfInstance inst = SharedEndpointByteScaleInstance(seed, &aliased);
    McfResult fast = SolveMcfFptas(inst, 0.1);
    ExpectBitwiseEqual(fast, SolveMcfFptasReference(inst, 0.1), "byte scale", seed);
    EXPECT_LE(MaxCapacityViolation(inst, fast), 1e-6 * 4e7) << "seed " << seed;
  }
  EXPECT_GT(aliased, 0);
}

TEST(McfFptasParityTest, FlowsStayFeasible) {
  for (uint64_t seed = 200; seed < 220; ++seed) {
    McfInstance inst = RandomInstance(seed);
    McfResult fast = SolveMcfFptas(inst, 0.1);
    ASSERT_TRUE(fast.ok);
    EXPECT_LE(MaxCapacityViolation(inst, fast), 1e-6) << "seed " << seed;
  }
}

TEST(McfFptasParityTest, EmptyAndDegenerateInstances) {
  McfInstance empty;
  EXPECT_TRUE(SolveMcfFptas(empty, 0.1).ok);

  // A commodity with no paths next to a normal one.
  McfInstance inst;
  inst.capacities = {4.0};
  inst.commodities.emplace_back();
  McfCommodity c;
  c.paths.push_back({{0}});
  inst.commodities.push_back(c);
  McfResult fast = SolveMcfFptas(inst, 0.1);
  ASSERT_TRUE(fast.ok);
  ExpectBitwiseEqual(fast, SolveMcfFptasReference(inst, 0.1), "degenerate", 0);
  EXPECT_TRUE(fast.flow[0].empty());
}

// Four structured commodities on private links: four components, each
// running its own ladder and certificate.
TEST(McfFptasParityTest, DisjointComponentsMatchReferenceBitForBit) {
  Rng rng(7);
  McfInstance inst;
  for (int c = 0; c < 4; ++c) {
    inst.commodities.push_back(StructuredCommodity(rng, inst, 3, 2));
  }
  ASSERT_EQ(RunCertificateLog(inst, 0.1).components.size(), 4u);
  ExpectBitwiseEqual(SolveMcfFptas(inst, 0.1), SolveMcfFptasReference(inst, 0.1), "disjoint",
                     7);
}

// Twelve commodities sharing one backbone: one component.
TEST(McfFptasParityTest, ContendedComponentMatchesReferenceBitForBit) {
  Rng rng(11);
  McfInstance inst;
  AddContendedComponent(rng, inst, 12);
  ASSERT_EQ(RunCertificateLog(inst, 0.1).components.size(), 1u);
  ExpectBitwiseEqual(SolveMcfFptas(inst, 0.1), SolveMcfFptasReference(inst, 0.1), "contended",
                     11);
}

// Two contended components whose certificates hold at different phases:
// the tuned loop must stop each at the phase the reference does, and keep
// pushing for the other.
TEST(McfFptasParityTest, ComponentsCertifyingAtDifferentPhasesMatchReference) {
  int found = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    McfInstance inst;
    AddContendedComponent(rng, inst, static_cast<int>(rng.UniformInt(2, 6)));
    AddContendedComponent(rng, inst, static_cast<int>(rng.UniformInt(2, 6)));
    const CertificateRun run = RunCertificateLog(inst, 0.1);
    ASSERT_EQ(run.components.size(), 2u);
    int64_t phases[2] = {0, 0};
    for (const mcf_internal::FptasCertRecord& rec : run.log) {
      if (rec.certified) {
        phases[rec.component] = rec.phase;
      }
    }
    if (phases[0] == 0 || phases[1] == 0 || phases[0] == phases[1]) {
      continue;
    }
    ++found;
    ExpectBitwiseEqual(SolveMcfFptas(inst, 0.1), SolveMcfFptasReference(inst, 0.1),
                       "split-phase certificates", seed);
  }
  EXPECT_GE(found, 3);
}

// The push cap: a budget that ends the run mid-ladder (inside a fast,
// structured or generic scan) must stop the tuned loop after exactly the
// pushes the reference makes, so both finalize the same raw flow.
TEST(McfFptasParityTest, BudgetedPushLoopMatchesBudgetedReference) {
  constexpr double kEps = 0.1;
  int bound = 0;
  for (uint64_t seed = 80; seed < 90; ++seed) {
    const McfInstance inst = RandomInstance(seed);
    const mcf_internal::FlatMcf flat = mcf_internal::FlattenMcf(inst);
    const mcf_internal::FptasWorkspace ws(flat, kEps);
    const double delta = mcf_internal::FptasDelta(flat, kEps);
    for (int64_t budget : {1, 7, 40}) {
      McfResult fast = mcf_internal::MakeEmptyFptasResult(inst);
      fast.ok = true;
      if (!flat.paths.empty()) {
        std::vector<double> length(ws.num_edges + 1, 0.0);
        for (size_t l = 0; l < ws.num_edges; ++l) {
          length[l] = delta / flat.cap[l];
        }
        std::vector<double> raw_flow(ws.num_paths, 0.0);
        const mcf_internal::FptasLoopStats stats =
            mcf_internal::RunFptasPushLoop(flat, ws, kEps, delta, budget, length, raw_flow);
        ASSERT_LE(stats.pushes, budget) << "seed " << seed << " budget " << budget;
        bound += stats.pushes == budget ? 1 : 0;
        mcf_internal::FinalizeFptas(flat, ws, raw_flow, fast);
      }
      ExpectBitwiseEqual(fast, SolveMcfFptasReference(inst, kEps, budget), "budgeted", seed);
    }
  }
  // Most runs must actually hit the cap, or the test shows nothing.
  EXPECT_GE(bound, 20);
}

// Solves `inst` once per slot, concurrently on `threads` pool threads.
std::vector<McfResult> SolveConcurrently(const McfInstance& inst, int threads, size_t copies) {
  std::vector<McfResult> out(copies);
  ParallelRunner pool(threads);
  pool.For(copies, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = SolveMcfFptas(inst, 0.1);
    }
  });
  return out;
}

// The controller solves on whichever thread runs its cycle, for any
// num_shards: concurrent solves of one instance must each match the
// reference bit for bit, so the solve keeps no state between calls.
TEST(McfShardTest, MatchesUnshardedBitForBitAcrossShardAndThreadCounts) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const McfInstance inst = RandomInstance(seed);
    const McfResult ref = SolveMcfFptasReference(inst, 0.1);
    for (int threads : {1, 4}) {
      for (const McfResult& r : SolveConcurrently(inst, threads, 4)) {
        ExpectBitwiseEqual(r, ref, "concurrent-vs-reference", seed);
      }
    }
  }
}

TEST(McfShardTest, EmptyAndDegenerateInstances) {
  McfInstance empty;
  for (const McfResult& r : SolveConcurrently(empty, 4, 4)) {
    EXPECT_TRUE(r.ok);
  }

  // A commodity with no paths next to a normal one.
  McfInstance inst;
  inst.capacities = {4.0};
  inst.commodities.emplace_back();
  McfCommodity c;
  c.paths.push_back({{0}});
  inst.commodities.push_back(c);
  const McfResult serial = SolveMcfFptas(inst, 0.1);
  ASSERT_TRUE(serial.ok);
  for (const McfResult& r : SolveConcurrently(inst, 4, 4)) {
    ASSERT_TRUE(r.ok);
    ExpectBitwiseEqual(r, serial, "degenerate", 0);
    EXPECT_TRUE(r.flow[0].empty());
  }
}

}  // namespace
}  // namespace bds
