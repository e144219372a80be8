#include "sim/flow_sim.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace opass::sim {
namespace {

TEST(FlowSimulator, SingleFlowTakesBytesOverCapacity) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);  // 100 B/s
  Seconds done = -1;
  sim.start_flow({r}, 500, [&](Seconds t) { done = t; });
  EXPECT_DOUBLE_EQ(sim.run(), 5.0);
  EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST(FlowSimulator, TwoFlowsShareFairly) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  Seconds d1 = -1, d2 = -1;
  sim.start_flow({r}, 500, [&](Seconds t) { d1 = t; });
  sim.start_flow({r}, 500, [&](Seconds t) { d2 = t; });
  sim.run();
  // Both at 50 B/s: both finish at 10 s.
  EXPECT_DOUBLE_EQ(d1, 10.0);
  EXPECT_DOUBLE_EQ(d2, 10.0);
}

TEST(FlowSimulator, ShortFlowReleasesCapacity) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  Seconds d_short = -1, d_long = -1;
  sim.start_flow({r}, 100, [&](Seconds t) { d_short = t; });
  sim.start_flow({r}, 600, [&](Seconds t) { d_long = t; });
  sim.run();
  // Shared 50/50 until the short one finishes at t=2 (100/50); the long one
  // then has 500 left at 100 B/s => t = 2 + 5 = 7.
  EXPECT_DOUBLE_EQ(d_short, 2.0);
  EXPECT_DOUBLE_EQ(d_long, 7.0);
}

TEST(FlowSimulator, MaxMinAcrossTwoResources) {
  // Flow A crosses r1 only; flow B crosses r1 and r2 where r2 is tight.
  // B is bottlenecked at 10 by r2; A gets the rest of r1 (90).
  FlowSimulator sim;
  const auto r1 = sim.add_resource(100.0);
  const auto r2 = sim.add_resource(10.0);
  Seconds da = -1, db = -1;
  sim.start_flow({r1}, 900, [&](Seconds t) { da = t; });
  sim.start_flow({r1, r2}, 100, [&](Seconds t) { db = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(da, 10.0);
  EXPECT_DOUBLE_EQ(db, 10.0);
}

TEST(FlowSimulator, RateCapLimitsLoneFlow) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  Seconds done = -1;
  sim.start_flow({r}, 100, [&](Seconds t) { done = t; }, /*rate_cap=*/20.0);
  sim.run();
  EXPECT_DOUBLE_EQ(done, 5.0);  // 100 B at 20 B/s
}

TEST(FlowSimulator, CappedFlowReleasesShareToOthers) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  Seconds da = -1, db = -1;
  sim.start_flow({r}, 200, [&](Seconds t) { da = t; }, /*rate_cap=*/20.0);
  sim.start_flow({r}, 400, [&](Seconds t) { db = t; });
  sim.run();
  // A runs at its 20 cap; B gets the remaining 80 => B done at 5,
  // A done at 10.
  EXPECT_DOUBLE_EQ(db, 5.0);
  EXPECT_DOUBLE_EQ(da, 10.0);
}

TEST(FlowSimulator, DiskBetaDegradesAggregate) {
  // beta = 1: two streams => effective capacity 100/(1+1) = 50, 25 each.
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0, /*beta=*/1.0);
  Seconds d1 = -1, d2 = -1;
  sim.start_flow({r}, 250, [&](Seconds t) { d1 = t; });
  sim.start_flow({r}, 250, [&](Seconds t) { d2 = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(d1, 10.0);
  EXPECT_DOUBLE_EQ(d2, 10.0);
}

TEST(FlowSimulator, TimersFireInOrder) {
  FlowSimulator sim;
  std::vector<int> order;
  sim.at(2.0, [&](Seconds) { order.push_back(2); });
  sim.at(1.0, [&](Seconds) { order.push_back(1); });
  sim.after(3.0, [&](Seconds) { order.push_back(3); });
  EXPECT_DOUBLE_EQ(sim.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(FlowSimulator, TimerTieBreaksBySchedulingOrder) {
  FlowSimulator sim;
  std::vector<int> order;
  sim.at(1.0, [&](Seconds) { order.push_back(1); });
  sim.at(1.0, [&](Seconds) { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(FlowSimulator, TimerCanStartFlow) {
  FlowSimulator sim;
  const auto r = sim.add_resource(10.0);
  Seconds done = -1;
  sim.after(1.5, [&](Seconds) {
    sim.start_flow({r}, 10, [&](Seconds t) { done = t; });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 2.5);
}

TEST(FlowSimulator, CompletionCallbackCanChainFlows) {
  FlowSimulator sim;
  const auto r = sim.add_resource(10.0);
  Seconds done = -1;
  sim.start_flow({r}, 10, [&](Seconds) {
    sim.start_flow({r}, 20, [&](Seconds t) { done = t; });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(FlowSimulator, ZeroByteFlowCompletesImmediately) {
  FlowSimulator sim;
  const auto r = sim.add_resource(10.0);
  Seconds done = -1;
  sim.start_flow({r}, 0, [&](Seconds t) { done = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(FlowSimulator, LargeTransferTerminates) {
  // Regression: FP residue on multi-MB transfers must not livelock the
  // event loop (bytes_left asymptotically approaching zero).
  FlowSimulator sim;
  const auto r = sim.add_resource(75.0 * 1024 * 1024, 0.25);
  int completed = 0;
  for (int i = 0; i < 8; ++i)
    sim.start_flow({r}, 64 * kMiB, [&](Seconds) { ++completed; });
  sim.run();
  EXPECT_EQ(completed, 8);
}

TEST(FlowSimulator, ResourceLoadTracksActiveFlows) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  EXPECT_EQ(sim.resource_load(r), 0u);
  sim.start_flow({r}, 100, nullptr);
  EXPECT_EQ(sim.resource_load(r), 1u);
  sim.run();
  EXPECT_EQ(sim.resource_load(r), 0u);
}

TEST(FlowSimulator, RunIsIdempotentWhenIdle) {
  FlowSimulator sim;
  EXPECT_DOUBLE_EQ(sim.run(), 0.0);
  EXPECT_DOUBLE_EQ(sim.run(), 0.0);
}

TEST(FlowSimulator, ValidationErrors) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  EXPECT_THROW(sim.add_resource(0.0), std::invalid_argument);
  EXPECT_THROW(sim.add_resource(10.0, -1.0), std::invalid_argument);
  EXPECT_THROW(sim.start_flow({}, 10, nullptr), std::invalid_argument);
  EXPECT_THROW(sim.start_flow({r + 1}, 10, nullptr), std::invalid_argument);
  EXPECT_THROW(sim.start_flow({r}, 10, nullptr, -1.0), std::invalid_argument);
  EXPECT_THROW(sim.at(-5.0, nullptr), std::invalid_argument);
  EXPECT_THROW(sim.resource_load(r + 1), std::invalid_argument);
}

TEST(FlowSimulator, ConservationOfWork) {
  // Property: total bytes delivered per unit time never exceeds resource
  // capacity — checked via completion times on a saturated resource.
  FlowSimulator sim;
  const auto r = sim.add_resource(50.0);
  double last = 0;
  int n = 10;
  for (int i = 0; i < n; ++i)
    sim.start_flow({r}, 100, [&](Seconds t) { last = std::max(last, t); });
  sim.run();
  // 1000 bytes through 50 B/s: exactly 20 s regardless of sharing pattern.
  EXPECT_DOUBLE_EQ(last, 20.0);
}

TEST(FlowSimulator, SimultaneousCompletionsEachSeeTheirOwnAttribution) {
  // 600 flows, each alone on a resource of its own capacity and sized to
  // finish at exactly 5 s: every completion lands on one tick, and each
  // callback must find its own single binding interval — pinned by its own
  // resource — among the 600 stashed ones.
  constexpr std::uint32_t kFlows = 600;
  FlowSimulator sim;
  sim.record_attribution(true);
  std::vector<ResourceId> resources(kFlows);
  std::vector<FlowId> ids(kFlows);
  std::uint32_t seen = 0;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    resources[i] = sim.add_resource(100.0 + i);
    ids[i] = sim.start_flow({resources[i]}, 500 + 5 * i, [&, i](Seconds t) {
      EXPECT_DOUBLE_EQ(t, 5.0);
      const auto* attr = sim.completed_attribution(ids[i]);
      ASSERT_NE(attr, nullptr);
      ASSERT_EQ(attr->size(), 1u);
      EXPECT_EQ((*attr)[0].resource, resources[i]);
      EXPECT_EQ((*attr)[0].start_ticks, 0);
      EXPECT_EQ((*attr)[0].end_ticks, to_ticks(5.0));
      // The same slot under another creation tag is not this flow.
      EXPECT_EQ(sim.completed_attribution(ids[i] + (FlowId{1} << 32)), nullptr);
      ++seen;
    });
  }
  // A zero-byte flow completes alone at t = 0, before any of the 600.
  sim.start_flow({sim.add_resource(1.0)}, 0, [&](Seconds) {
    EXPECT_EQ(sim.completed_attribution(ids[5]), nullptr);
  });
  sim.run();
  EXPECT_EQ(seen, kFlows);
  // The stash expires with its event step.
  EXPECT_EQ(sim.completed_attribution(ids[0]), nullptr);
}

}  // namespace
}  // namespace opass::sim
