#include "src/control/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/options.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

struct Fixture {
  Topology topo;
  WanRoutingTable routing;

  explicit Fixture(int dcs = 3, int servers = 2, Rate nic = MBps(20.0),
                   Rate wan = Gbps(1.0))
      : topo(BuildFullMesh(dcs, servers, wan, nic, nic).value()),
        routing(WanRoutingTable::Build(topo, 3).value()) {}
};

ControllerOptions Defaults() {
  BdsOptions options;
  options.cycle_length = 1.0;
  return ToControllerOptions(options);
}

TEST(BdsControllerTest, EmptyRunTerminatesImmediately) {
  Fixture f;
  BdsController controller(&f.topo, &f.routing, Defaults());
  auto report = controller.Run(/*deadline=*/100.0);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->deliveries, 0);
}

TEST(BdsControllerTest, RejectsInvalidJob) {
  Fixture f;
  BdsController controller(&f.topo, &f.routing, Defaults());
  MulticastJob bad = MakeJob(0, 0, {1}, MB(2.0)).value();
  bad.dest_dcs = {99};
  EXPECT_FALSE(controller.SubmitJob(bad).ok());
}

TEST(BdsControllerTest, SubmitAfterPriorRunsJobsSortedByArrival) {
  Fixture f;
  BdsController controller(&f.topo, &f.routing, Defaults());
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1}, MB(8.0), MB(2.0), 10.0).value()).ok());
  ASSERT_TRUE(controller.SubmitJob(MakeJob(1, 0, {1}, MB(8.0), MB(2.0), 0.0).value()).ok());
  auto report = controller.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  // The job arriving at t=0 must finish before the one arriving at t=10.
  EXPECT_LT(report->job_completion.at(1), report->job_completion.at(0));
}

// Jobs are admitted in (arrival_time, submission) order, whatever order
// they were submitted in.
TEST(BdsControllerTest, AdmitsInArrivalThenSubmissionOrder) {
  Fixture f;
  BdsController controller(&f.topo, &f.routing, Defaults());
  std::vector<std::pair<SimTime, JobId>> expected;
  for (JobId id = 0; id < 40; ++id) {
    const SimTime arrival = static_cast<SimTime>((id * 7) % 4);
    ASSERT_TRUE(
        controller.SubmitJob(MakeJob(id, 0, {1}, MB(2.0), MB(2.0), arrival).value()).ok());
    expected.emplace_back(arrival, id);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_TRUE(controller.Run(/*deadline=*/3.5).ok());
  std::vector<JobId> admitted = controller.state().job_ids();
  ASSERT_EQ(admitted.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(admitted[i], expected[i].second) << "admission " << i;
  }
}

TEST(BdsControllerTest, RejectsJobWithTooManyBlocks) {
  Fixture f;
  BdsController controller(&f.topo, &f.routing, Defaults());
  MulticastJob job = MakeJob(0, 0, {1}, static_cast<double>(kMaxJobBlocks), 1.0).value();
  EXPECT_TRUE(controller.SubmitJob(job).ok());  // Exactly at the limit.
  job.id = 1;
  job.total_bytes = static_cast<double>(kMaxJobBlocks) + 1.0;
  EXPECT_EQ(controller.SubmitJob(job).code(), StatusCode::kInvalidArgument);
  job.total_bytes = 1e300;  // Would overflow num_blocks()'s int64_t cast.
  EXPECT_EQ(controller.SubmitJob(job).code(), StatusCode::kInvalidArgument);
}

TEST(BdsControllerTest, CycleStatsAreConsistent) {
  Fixture f;
  BdsController controller(&f.topo, &f.routing, Defaults());
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1, 2}, MB(60.0)).value()).ok());
  auto report = controller.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);
  int64_t total_delivered = 0;
  for (size_t i = 0; i < report->cycles.size(); ++i) {
    const CycleStats& c = report->cycles[i];
    EXPECT_EQ(c.cycle, static_cast<int64_t>(i));
    EXPECT_GE(c.scheduled_blocks, 0);
    EXPECT_GE(c.merged_subtasks, 0);
    EXPECT_LE(c.merged_subtasks, c.scheduled_blocks);
    total_delivered += c.blocks_delivered;
  }
  EXPECT_GT(total_delivered, 0);
}

TEST(BdsControllerTest, WanThresholdNeverExceeded) {
  // With the 80% threshold, bulk rate on any WAN link must stay at or below
  // 0.8 * capacity at every sampled instant — even across cycle overlap.
  Fixture f(3, 4, MBps(50.0), MBps(200.0));  // WAN binds: 4x50 MB/s NICs vs 200 MB/s WAN.
  ControllerOptions options = Defaults();
  options.separation.safety_threshold = 0.8;
  BdsController controller(&f.topo, &f.routing, options);
  for (LinkId l = 0; l < f.topo.num_links(); ++l) {
    if (f.topo.link(l).type == LinkType::kWan) {
      controller.mutable_simulator()->TrackLinkUtilization(l);
    }
  }
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1, 2}, MB(400.0)).value()).ok());
  auto report = controller.Run(Hours(1.0));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);
  for (LinkId l = 0; l < f.topo.num_links(); ++l) {
    if (f.topo.link(l).type != LinkType::kWan) {
      continue;
    }
    const TimeSeries* series = controller.simulator().LinkUtilizationSeries(l);
    ASSERT_NE(series, nullptr);
    EXPECT_LE(series->MaxValue(), 0.8 + 1e-6) << "link " << l;
  }
}

TEST(BdsControllerTest, OversizedBlocksSpanCyclesAndComplete) {
  // 64 MB blocks with 20 MB/s NICs and 1 s cycles: every transfer must span
  // cycles as an in-flight transfer, and still complete.
  Fixture f;
  ControllerOptions options = Defaults();
  BdsController controller(&f.topo, &f.routing, options);
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1, 2}, MB(256.0), MB(64.0)).value()).ok());
  auto report = controller.Run(Hours(1.0));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
}

TEST(BdsControllerTest, RestallRecreditsDeliveredBlocks) {
  // Tiny restall horizon forces cancel-and-credit churn; whole delivered
  // blocks must be credited, and the job must still finish.
  Fixture f;
  ControllerOptions options = Defaults();
  options.restall_cycles = 1.0;  // Aggressive re-planning.
  BdsController controller(&f.topo, &f.routing, options);
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1, 2}, MB(120.0), MB(8.0)).value()).ok());
  auto report = controller.Run(Hours(1.0));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
}

TEST(BdsControllerTest, AllSourceHoldersFailedStopsCleanly) {
  // Kill every server in the source DC before anything can transfer: the
  // run must terminate (incomplete), not spin to the deadline.
  Fixture f(3, 2);
  ControllerOptions options = Defaults();
  BdsController controller(&f.topo, &f.routing, options);
  MulticastJob job = MakeJob(0, 0, {1, 2}, MB(40.0)).value();
  job.arrival_time = 1.0;
  ASSERT_TRUE(controller.SubmitJob(job).ok());
  for (ServerId s : f.topo.ServersIn(0)) {
    controller.ScheduleServerFailure(s, 0.0);
  }
  auto report = controller.Run(/*deadline=*/3600.0);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->completed);
  EXPECT_LT(report->cycles.size(), 100u);  // Stopped early, not at deadline.
}

TEST(BdsControllerTest, BackgroundTrafficSlowsBulk) {
  Fixture quiet(3, 2, MBps(50.0), MBps(150.0));
  Fixture busy(3, 2, MBps(50.0), MBps(150.0));
  ControllerOptions options = Defaults();

  BdsController c1(&quiet.topo, &quiet.routing, options);
  ASSERT_TRUE(c1.SubmitJob(MakeJob(0, 0, {1, 2}, MB(200.0)).value()).ok());
  auto r1 = c1.Run(Hours(2.0));
  ASSERT_TRUE(r1.ok() && r1->completed);

  BdsController c2(&busy.topo, &busy.routing, options);
  BackgroundTrafficModel::Options bg;
  bg.mean_utilization = 0.5;
  BackgroundTrafficModel model(&busy.topo, bg);
  c2.SetBackgroundTraffic(&model);
  ASSERT_TRUE(c2.SubmitJob(MakeJob(0, 0, {1, 2}, MB(200.0)).value()).ok());
  auto r2 = c2.Run(Hours(2.0));
  ASSERT_TRUE(r2.ok() && r2->completed);

  EXPECT_GT(r2->completion_time, r1->completion_time);
}

TEST(BdsControllerTest, SchedulingPoliciesAllComplete) {
  for (SchedulingPolicy policy : {SchedulingPolicy::kRarestFirst, SchedulingPolicy::kRandom,
                                  SchedulingPolicy::kSequential}) {
    Fixture f;
    ControllerOptions options = Defaults();
    options.algorithm.policy = policy;
    BdsController controller(&f.topo, &f.routing, options);
    ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1, 2}, MB(40.0)).value()).ok());
    auto report = controller.Run(Hours(1.0));
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->completed);
  }
}

TEST(BdsControllerTest, JointFormulationModeCompletes) {
  Fixture f;
  ControllerOptions options = Defaults();
  options.algorithm.schedule_all = true;
  options.algorithm.merge_subtasks = false;
  options.algorithm.use_exact_lp = true;
  BdsController controller(&f.topo, &f.routing, options);
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1}, MB(24.0)).value()).ok());
  auto report = controller.Run(Hours(1.0));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
}

}  // namespace
}  // namespace bds
