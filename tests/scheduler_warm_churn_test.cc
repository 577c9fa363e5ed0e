// Cross-cycle churn suite for the incremental controller (DESIGN.md §9.7).
//
// Churn parity (bitwise) over multi-cycle runs with job arrivals,
// retirements, deliveries, and server faults between cycles: the
// incremental candidate build — last cycle's slots patched forward through
// the dirty set — must equal the from-scratch ForEachOwed stream
// (tests/oracles) slot for slot after every Decide, and its decisions must
// equal those of a controller whose cycle cache is invalidated before every
// Decide (an all-dirty build), for any shard/thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/scheduler/controller_algorithm.h"
#include "src/scheduler/replica_state.h"
#include "src/topology/builders.h"
#include "src/workload/job.h"
#include "tests/oracles/candidate_oracle.h"

namespace bds {
namespace {

struct Scenario {
  Topology topo;
  WanRoutingTable routing;
  std::vector<Rate> residual;

  explicit Scenario(Topology t)
      : topo(std::move(t)), routing(WanRoutingTable::Build(topo, 3).value()) {
    for (const Link& l : topo.links()) {
      residual.push_back(l.capacity);
    }
  }
};

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const int dcs = static_cast<int>(rng.UniformInt(3, 5));
  const int servers = static_cast<int>(rng.UniformInt(2, 3));
  return Scenario(BuildFullMesh(dcs, servers, Gbps(rng.Uniform(0.5, 2.0)),
                                MBps(rng.Uniform(15.0, 40.0)),
                                MBps(rng.Uniform(15.0, 40.0)))
                      .value());
}

MulticastJob RandomJob(Rng& rng, const Topology& topo, JobId id) {
  const int dcs = topo.num_dcs();
  const DcId src = static_cast<DcId>(rng.UniformInt(0, dcs - 1));
  std::vector<DcId> dests;
  for (DcId d = 0; d < dcs; ++d) {
    if (d != src && (dests.empty() || rng.Bernoulli(0.6))) {
      dests.push_back(d);
    }
  }
  const int64_t blocks = rng.UniformInt(16, 200);
  return MakeJob(id, src, dests, MB(2.0) * static_cast<double>(blocks), MB(2.0)).value();
}

// One churn step, identical for every run of a seed: apply the decided
// transfers as deliveries, sometimes force-complete + retire the oldest live
// job, sometimes admit a new one, rarely fail a server. Every rng draw
// happens in fixed statement order so churn is a pure function of
// (seed, cycle, decision) — and parity makes the decision itself a pure
// function of the seed.
void ApplyChurn(Rng& rng, const Scenario& sc, ReplicaState& state,
                const CycleDecision& decision, JobId* next_job) {
  for (const TransferAssignment& t : decision.transfers) {
    for (int64_t b : t.blocks) {
      BDS_CHECK(state.NoteDelivery(t.job, b, t.src_server, t.dst_server).ok());
    }
  }
  if (rng.Bernoulli(0.35) && state.num_live_jobs() > 1) {
    const JobId oldest = state.job_ids().front();
    const MulticastJob& job = *state.FindJob(oldest);
    for (DcId dc : job.dest_dcs) {
      for (int64_t b = 0; b < job.num_blocks(); ++b) {
        const ServerId dst = state.AssignedServer(oldest, b, dc);
        if (!state.ServerFailed(dst)) {
          BDS_CHECK(state.AddReplica(oldest, b, dst).ok());
        }
      }
    }
    // A failed assigned server can leave the job permanently owing, in
    // which case RetireJob correctly refuses; the job just stays live.
    (void)state.RetireJob(oldest);
  }
  if (rng.Bernoulli(0.6)) {
    BDS_CHECK(state.AddJob(RandomJob(rng, sc.topo, (*next_job)++)).ok());
  }
  if (rng.Bernoulli(0.1)) {
    state.RemoveServer(static_cast<ServerId>(
        rng.UniformInt(0, sc.topo.num_servers() - 1)));
  }
}

// How a churn run treats the controller's cross-cycle candidate cache.
enum class CacheMode {
  kWarm,         // Patched forward cycle to cycle (production).
  kWarmChecked,  // kWarm, plus a slot-for-slot oracle check after each Decide.
  kCold,         // Invalidated before every Decide: an all-dirty build.
};

// Totals over one churn run.
struct ChurnStats {
  int64_t cand_slots_reused = 0;  // Candidate slots patched, not re-priced.
};

// Runs `cycles` decide+churn steps and folds every decision fingerprint into
// one digest; the first divergent cycle poisons all later ones.
uint64_t RunChurnFingerprint(uint64_t seed, const ControllerAlgorithmOptions& opt,
                             int cycles, CacheMode mode = CacheMode::kWarm,
                             ChurnStats* stats = nullptr) {
  Scenario sc = MakeScenario(seed);
  ReplicaState state(&sc.topo);
  Rng churn_rng(seed ^ 0x5DEECE66DULL);
  JobId next_job = 1;
  for (int j = 0; j < 3; ++j) {
    BDS_CHECK(state.AddJob(RandomJob(churn_rng, sc.topo, next_job++)).ok());
  }
  ControllerAlgorithm algo(&sc.topo, &sc.routing, opt);
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  };
  for (int c = 0; c < cycles; ++c) {
    if (mode == CacheMode::kCold) {
      algo.InvalidateCycleCache();
    }
    CycleDecision d = algo.Decide(c, state, sc.residual, {});
    if (mode == CacheMode::kWarmChecked) {
      EXPECT_TRUE(ControllerAlgorithmTestPeer::CachedSlots(algo) ==
                  ReferenceCandidates(state, opt.policy))
          << "candidate slots diverge from the ForEachOwed stream at cycle " << c;
    }
    mix(d.Fingerprint());
    if (stats != nullptr) {
      stats->cand_slots_reused += d.cand_slots_reused;
    }
    ApplyChurn(churn_rng, sc, state, d, &next_job);
  }
  return h;
}

ControllerAlgorithmOptions Options(int shards, int threads) {
  ControllerAlgorithmOptions opt;
  opt.num_shards = shards;
  opt.num_threads = threads;
  return opt;
}

// Churn parity: at every cycle of an arrival/retire/delivery/fault sequence,
// across shard and thread counts, the warm controller's cached slots equal
// the from-scratch stream and its decisions equal the cold controller's.
TEST(WarmChurnTest, IncrementalMatchesColdAcrossChurn) {
  ChurnStats warm;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const uint64_t cold = RunChurnFingerprint(seed, Options(1, 1), 8, CacheMode::kCold);
    for (int shards : {1, 4}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " shards " << shards
                                        << " threads " << threads);
        EXPECT_EQ(RunChurnFingerprint(seed, Options(shards, threads), 8,
                                      CacheMode::kWarmChecked, &warm),
                  cold);
      }
    }
  }
  EXPECT_GT(warm.cand_slots_reused, 0) << "no cycle patched a cached slot";
}

// The same parity for the other selection policies: kSequential's salt is
// the packed key itself, so the patch pass must re-derive it when a job's
// position shifts.
TEST(WarmChurnTest, IncrementalMatchesColdForEveryPolicy) {
  for (SchedulingPolicy policy : {SchedulingPolicy::kRandom, SchedulingPolicy::kSequential}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(policy) << " seed "
                                      << seed);
      ControllerAlgorithmOptions opt = Options(1, 1);
      opt.policy = policy;
      EXPECT_EQ(RunChurnFingerprint(seed, opt, 8, CacheMode::kWarmChecked),
                RunChurnFingerprint(seed, opt, 8, CacheMode::kCold));
    }
  }
}

}  // namespace
}  // namespace bds
