// Batched-churn and SoA hot-path edge cases:
//  * FlowView::RemainingAt clamps at zero (no negative remaining);
//  * rate_epoch lazy heap invalidation — a starved (zero-rate) flow's stale
//    projected completion must never fire, and simultaneous completions at
//    one timestamp batch into a single event;
//  * BeginBatch/CommitBatch is bit-identical to per-flow submission, both
//    for small batches and for batches large enough to trigger the
//    commit-time slot reorder (ReorderSlotsForLocality, >= 4096 adds).

#include <gtest/gtest.h>

#include <vector>

#include "src/simulator/flow.h"
#include "src/simulator/network_simulator.h"
#include "src/topology/topology.h"

namespace bds {
namespace {

// `clusters` independent DC pairs, one server each side, own WAN link each:
// disjoint components whose flows only interact within their own cluster.
struct ClusterNet {
  Topology topo;
  std::vector<std::vector<LinkId>> paths;  // One path per cluster.
};

ClusterNet MakeClusters(int clusters, Rate rate = 10e6) {
  ClusterNet n;
  for (int c = 0; c < clusters; ++c) {
    DcId a = n.topo.AddDatacenter("a" + std::to_string(c));
    DcId b = n.topo.AddDatacenter("b" + std::to_string(c));
    ServerId src = n.topo.AddServer(a, rate, rate).value();
    ServerId dst = n.topo.AddServer(b, rate, rate).value();
    LinkId wan = n.topo.AddWanLink(a, b, rate).value();
    n.paths.push_back({n.topo.server(src).uplink, wan, n.topo.server(dst).downlink});
  }
  return n;
}

TEST(RemainingAtTest, FlowViewClampsAtZero) {
  FlowView v;
  v.remaining = 8.0;
  v.anchor_time = 0.0;
  v.current_rate = 2.0;
  EXPECT_DOUBLE_EQ(v.RemainingAt(3.0), 2.0);
  EXPECT_DOUBLE_EQ(v.RemainingAt(4.0), 0.0);
  EXPECT_DOUBLE_EQ(v.RemainingAt(1e9), 0.0);
  // Zero-rate flows hold their remaining forever.
  v.current_rate = 0.0;
  EXPECT_DOUBLE_EQ(v.RemainingAt(1e9), 8.0);
}

// A flow starved to rate zero must not complete off its stale (pre-starve)
// heap entry: the entry's rate_epoch no longer matches the slot's, so the
// pop discards it.
TEST(StaleHeapEntryTest, StarvedFlowDoesNotCompleteOffStaleEntry) {
  ClusterNet net = MakeClusters(1, 10e6);
  NetworkSimulator sim(&net.topo);
  FlowId id = sim.StartFlow(net.paths[0], 100e6).value();  // Projected t=10.
  ASSERT_TRUE(sim.AdvanceTo(2.0).ok());                    // 20 MB moved.
  // Background traffic eats the whole WAN: the re-solve drops the flow to
  // rate 0 and bumps its rate_epoch, orphaning the t=10 heap entry.
  ASSERT_TRUE(sim.SetBackgroundRate(net.paths[0][1], 10e6).ok());
  ASSERT_TRUE(sim.AdvanceTo(20.0).ok());  // Far past the stale entry's key.
  EXPECT_EQ(sim.num_active_flows(), 1);
  EXPECT_TRUE(sim.completed_flows().empty());
  auto view = sim.FindFlow(id);
  ASSERT_TRUE(view.has_value());
  EXPECT_DOUBLE_EQ(view->current_rate, 0.0);
  EXPECT_DOUBLE_EQ(view->RemainingAt(sim.now()), 80e6);
  // Capacity returns: the remaining 80 MB moves at 10 MB/s from t=20.
  ASSERT_TRUE(sim.SetBackgroundRate(net.paths[0][1], 0.0).ok());
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  EXPECT_NEAR(*end, 28.0, 1e-6);
  ASSERT_EQ(sim.completed_flows().size(), 1u);
  EXPECT_EQ(sim.completed_flows()[0].id, id);
}

// Equal flows in disjoint components project identical completion times; the
// heap must drain them as one event batch at one timestamp.
TEST(StaleHeapEntryTest, SimultaneousCompletionsShareOneEvent) {
  ClusterNet net = MakeClusters(4, 10e6);
  NetworkSimulator sim(&net.topo);
  std::vector<FlowId> ids;
  for (int c = 0; c < 4; ++c) {
    ids.push_back(sim.StartFlow(net.paths[c], 50e6).value());  // All end t=5.
  }
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  EXPECT_NEAR(*end, 5.0, 1e-6);
  EXPECT_EQ(sim.num_completion_events(), 1);
  ASSERT_EQ(sim.completed_flows().size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    // Completions within one event fire in ascending id order.
    EXPECT_EQ(sim.completed_flows()[i].id, ids[i]);
    EXPECT_DOUBLE_EQ(sim.completed_flows()[i].end_time, sim.completed_flows()[0].end_time);
  }
}

// Deterministic per-flow byte sizes, varied so completions interleave across
// clusters and each completion re-solves its shrunken component.
Bytes FlowBytes(int i) { return 1e6 * static_cast<double>(1 + (i * 37) % 100); }

// Runs the same workload either per-flow or batched and returns the
// completion records.
std::vector<FlowRecord> RunWorkload(const ClusterNet& net, int flows, bool batched,
                                    bool with_churn) {
  NetworkSimulator sim(&net.topo);
  const int clusters = static_cast<int>(net.paths.size());
  if (batched) {
    sim.BeginBatch();
  }
  std::vector<FlowId> ids;
  for (int i = 0; i < flows; ++i) {
    ids.push_back(sim.StartFlow(net.paths[i % clusters], FlowBytes(i)).value());
  }
  if (with_churn) {
    // Cancels and repins inside the batch flush the deferred starts first,
    // so the op order seen by the allocator matches the per-flow run.
    for (int i = 0; i < flows; i += 97) {
      EXPECT_TRUE(sim.CancelFlow(ids[static_cast<size_t>(i)]).ok());
    }
    for (int i = 1; i < flows; i += 101) {
      if (i % 97 == 0) {
        continue;  // Canceled above.
      }
      EXPECT_TRUE(sim.RepinFlow(ids[static_cast<size_t>(i)], 1e6).ok());
    }
  }
  if (batched) {
    sim.CommitBatch();
  }
  EXPECT_TRUE(sim.RunUntilIdle().ok());
  return sim.completed_flows();
}

void ExpectBitIdentical(const std::vector<FlowRecord>& a, const std::vector<FlowRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    // Bitwise, not approximate: the batched path must run the exact same
    // float operations in the exact same order.
    EXPECT_EQ(a[i].end_time, b[i].end_time);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
}

TEST(BatchedChurnTest, SmallBatchBitIdenticalToPerFlow) {
  ClusterNet net = MakeClusters(8);
  ExpectBitIdentical(RunWorkload(net, 240, /*batched=*/false, /*with_churn=*/true),
                     RunWorkload(net, 240, /*batched=*/true, /*with_churn=*/true));
}

// A batch past the reorder threshold (4096 adds) compacts the pool at
// commit: slots are renumbered component-by-component and the completion
// heap, incidence rows, and id map are remapped. Results must stay
// bit-identical to the unbatched run, which never reorders.
TEST(BatchedChurnTest, ReorderingBatchBitIdenticalToPerFlow) {
  ClusterNet net = MakeClusters(32);
  ExpectBitIdentical(RunWorkload(net, 5000, /*batched=*/false, /*with_churn=*/false),
                     RunWorkload(net, 5000, /*batched=*/true, /*with_churn=*/false));
}

TEST(BatchedChurnTest, ReorderingBatchWithChurnBitIdentical) {
  ClusterNet net = MakeClusters(32);
  ExpectBitIdentical(RunWorkload(net, 5000, /*batched=*/false, /*with_churn=*/true),
                     RunWorkload(net, 5000, /*batched=*/true, /*with_churn=*/true));
}

}  // namespace
}  // namespace bds
