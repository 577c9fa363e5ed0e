#include "src/lp/mcf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/lp/mcf_internal.h"
#include "tests/lp_mcf_cert_log.h"

namespace bds {
namespace {

McfInstance SingleCommoditySingleLink() {
  McfInstance inst;
  inst.capacities = {10.0};
  McfCommodity c;
  c.paths.push_back({{0}});
  inst.commodities.push_back(c);
  return inst;
}

TEST(McfSimplexTest, SinglePathSaturatesLink) {
  auto inst = SingleCommoditySingleLink();
  McfResult r = SolveMcfSimplex(inst);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.total_flow, 10.0, 1e-9);
  EXPECT_NEAR(r.flow[0][0], 10.0, 1e-9);
}

TEST(McfSimplexTest, DemandCapsFlow) {
  auto inst = SingleCommoditySingleLink();
  inst.commodities[0].demand = 4.0;
  McfResult r = SolveMcfSimplex(inst);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.total_flow, 4.0, 1e-9);
}

TEST(McfSimplexTest, TwoDisjointPathsAdd) {
  McfInstance inst;
  inst.capacities = {3.0, 5.0};
  McfCommodity c;
  c.paths.push_back({{0}});
  c.paths.push_back({{1}});
  inst.commodities.push_back(c);
  McfResult r = SolveMcfSimplex(inst);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.total_flow, 8.0, 1e-9);
}

TEST(McfSimplexTest, SharedBottleneck) {
  // Two commodities share link 0 (cap 6); each also crosses a private link
  // (caps 10). Total flow = 6.
  McfInstance inst;
  inst.capacities = {6.0, 10.0, 10.0};
  McfCommodity c1;
  c1.paths.push_back({{0, 1}});
  McfCommodity c2;
  c2.paths.push_back({{0, 2}});
  inst.commodities.push_back(c1);
  inst.commodities.push_back(c2);
  McfResult r = SolveMcfSimplex(inst);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.total_flow, 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(MaxCapacityViolation(inst, r), 0.0);
}

TEST(McfSimplexTest, Figure3LikeInstance) {
  // Direct path (cap 2) and relay path (cap 3 bottleneck): max one-shot
  // throughput is 5 units/s — the basis for the 36 GB in ~7.2+store-forward
  // analysis in §2.2.
  McfInstance inst;
  inst.capacities = {2.0, 6.0, 3.0};
  McfCommodity c;
  c.paths.push_back({{0}});     // A->C direct
  c.paths.push_back({{1, 2}});  // A->b->C
  inst.commodities.push_back(c);
  McfResult r = SolveMcfSimplex(inst);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.total_flow, 5.0, 1e-9);
}

TEST(McfFptasTest, MatchesExactOnSingleLink) {
  auto inst = SingleCommoditySingleLink();
  McfResult r = SolveMcfFptas(inst, 0.05);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.total_flow, 10.0 * 0.93);
  EXPECT_LE(MaxCapacityViolation(inst, r), 1e-9);
}

TEST(McfFptasTest, RespectsDemand) {
  auto inst = SingleCommoditySingleLink();
  inst.commodities[0].demand = 4.0;
  McfResult r = SolveMcfFptas(inst, 0.05);
  ASSERT_TRUE(r.ok);
  EXPECT_LE(r.CommodityFlow(0), 4.0 + 1e-9);
  EXPECT_GE(r.total_flow, 4.0 * 0.9);
}

TEST(McfFptasTest, ZeroCapacityLinkCarriesNothing) {
  McfInstance inst;
  inst.capacities = {0.0, 5.0};
  McfCommodity c;
  c.paths.push_back({{0}});
  c.paths.push_back({{1}});
  inst.commodities.push_back(c);
  McfResult r = SolveMcfFptas(inst, 0.1);
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.flow[0][0], 0.0);
  EXPECT_GE(r.flow[0][1], 5.0 * 0.85);
}

TEST(McfFptasTest, ZeroDemandCommodityGetsNothing) {
  auto inst = SingleCommoditySingleLink();
  inst.commodities[0].demand = 0.0;
  McfResult r = SolveMcfFptas(inst, 0.1);
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.total_flow, 0.0);
}

TEST(McfFptasTest, EmptyInstance) {
  McfInstance inst;
  McfResult r = SolveMcfFptas(inst, 0.1);
  EXPECT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.total_flow, 0.0);
}

TEST(McfFptasTest, CommodityWithNoPaths) {
  McfInstance inst;
  inst.capacities = {5.0};
  inst.commodities.push_back(McfCommodity{});  // No paths at all.
  McfCommodity c;
  c.paths.push_back({{0}});
  inst.commodities.push_back(c);
  McfResult r = SolveMcfFptas(inst, 0.1);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.flow[0].empty());
  EXPECT_GT(r.total_flow, 0.0);
}

// Random instance for the property sweep. Unit-scale capacities (1-20) or,
// with `byte_scale`, log-uniform byte rates of 1e6-1e9 like the controller's:
// there the first alpha threshold starts far above the shortest path, so
// only the certificate backs the (1 - eps) contract.
McfInstance RandomComparisonInstance(uint64_t seed, bool byte_scale) {
  Rng rng(seed);
  auto draw = [&](double lo, double hi) {
    return byte_scale ? std::exp(rng.Uniform(std::log(lo), std::log(hi))) : rng.Uniform(lo, hi);
  };
  McfInstance inst;
  int num_links = static_cast<int>(rng.UniformInt(2, 10));
  for (int l = 0; l < num_links; ++l) {
    inst.capacities.push_back(byte_scale ? draw(1e6, 1e9) : draw(1.0, 20.0));
  }
  int num_commodities = static_cast<int>(rng.UniformInt(1, 5));
  for (int c = 0; c < num_commodities; ++c) {
    McfCommodity com;
    if (rng.Bernoulli(0.5)) {
      com.demand = byte_scale ? draw(5e5, 7.5e8) : draw(0.5, 15.0);
    }
    int num_paths = static_cast<int>(rng.UniformInt(1, 4));
    for (int p = 0; p < num_paths; ++p) {
      McfPath path;
      int len = static_cast<int>(rng.UniformInt(1, std::min(3, num_links)));
      auto picks = rng.SampleWithoutReplacement(num_links, len);
      for (int64_t l : picks) {
        path.links.push_back(static_cast<int>(l));
      }
      com.paths.push_back(std::move(path));
    }
    inst.commodities.push_back(std::move(com));
  }
  return inst;
}

// `inst` restricted to the commodities `keep` (the others lose their paths).
McfInstance Restrict(const McfInstance& inst, const std::vector<int>& keep) {
  McfInstance sub = inst;
  for (int c = 0; c < sub.num_commodities(); ++c) {
    if (std::find(keep.begin(), keep.end(), c) == keep.end()) {
      sub.commodities[static_cast<size_t>(c)].paths.clear();
    }
  }
  return sub;
}

// Property sweep: random instances at unit and byte scale — the FPTAS must
// be feasible and within (1 - 3*eps) of the simplex optimum; every dual
// bound the early-stop certificate computes must be at least its
// component's optimum; and when every component stopped on a certificate
// the total must be within 1/(1 + eps/10) of the optimum.
class McfRandomComparisonTest : public ::testing::TestWithParam<int> {};

TEST_P(McfRandomComparisonTest, FptasNearOptimalAndFeasible) {
  const double eps = 0.05;
  for (bool byte_scale : {false, true}) {
    SCOPED_TRACE(byte_scale ? "byte scale" : "unit scale");
    McfInstance inst =
        RandomComparisonInstance(static_cast<uint64_t>(GetParam()) * 7919 + 13, byte_scale);
    McfResult exact = SolveMcfSimplex(inst);
    ASSERT_TRUE(exact.ok);
    McfResult approx = SolveMcfFptas(inst, eps);
    ASSERT_TRUE(approx.ok);

    const double tol = byte_scale ? 1e-9 * exact.total_flow : 1e-9;
    EXPECT_LE(MaxCapacityViolation(inst, approx), 1e-6);
    EXPECT_LE(approx.total_flow, exact.total_flow * (1.0 + 1e-6));
    EXPECT_GE(approx.total_flow, exact.total_flow * (1.0 - 3.0 * eps) - tol);

    const CertificateRun run = RunCertificateLog(inst, eps);
    std::vector<uint8_t> certified(run.components.size(), 0);
    for (const mcf_internal::FptasCertRecord& rec : run.log) {
      McfResult part =
          SolveMcfSimplex(Restrict(inst, run.components[static_cast<size_t>(rec.component)]));
      ASSERT_TRUE(part.ok);
      const double part_tol = 1e-9 * std::max(1.0, part.total_flow);
      EXPECT_GE(rec.bound, part.total_flow - part_tol)
          << "component " << rec.component << " phase " << rec.phase;
      EXPECT_LE(rec.primal, part.total_flow + part_tol)
          << "component " << rec.component << " phase " << rec.phase;
      certified[static_cast<size_t>(rec.component)] |= rec.certified ? 1 : 0;
    }
    if (std::all_of(certified.begin(), certified.end(), [](uint8_t v) { return v != 0; })) {
      EXPECT_GE(approx.total_flow, exact.total_flow / (1.0 + eps / 10.0) - tol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, McfRandomComparisonTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace bds
