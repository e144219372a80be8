// Fault-injection end to end through the exp harness (DESIGN.md §11):
// exactly-once completion across crash + reassignment, re-replication byte
// accounting against the planned layout, straggler-threshold detection, and
// the dynamic scheduler's membership-driven re-plan.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/analytics.hpp"
#include "opass/plan_audit.hpp"

namespace opass::exp {
namespace {

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 42;
  return cfg;
}

sim::FaultEvent make_event(Seconds at, sim::FaultKind kind, dfs::NodeId node) {
  sim::FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.node = node;
  return ev;
}

std::vector<runtime::TaskId> executed_ids(const runtime::ExecutionResult& raw) {
  std::vector<runtime::TaskId> ids;
  ids.reserve(raw.task_spans.size());
  for (const auto& span : raw.task_spans) ids.push_back(span.task);
  return ids;
}

TEST(FaultE2E, CrashedStaticRunCompletesExactlyOnce) {
  auto cfg = small_cfg();
  sim::FaultPlan plan;
  plan.events.push_back(make_event(2.0, sim::FaultKind::kCrash, 5));
  sim::FaultStats stats;
  runtime::ExecutionResult raw;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  cfg.raw = &raw;

  const auto out = run_single_data(cfg, 80, Method::kOpass);
  EXPECT_EQ(out.tasks_executed, 80u);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.lost_chunks, 0u);
  // The exactly-once contract survives the crash: every task ran once.
  const auto report = core::audit_completion(80, executed_ids(raw));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FaultE2E, ReReplicationBytesMatchThePlannedLayout) {
  auto cfg = small_cfg();
  // plan_single_data materializes the same seeded namespace the run builds,
  // so the victim's planned chunk inventory predicts the recovery traffic.
  const auto planned = plan_single_data(cfg, 80, Method::kOpass);
  Bytes expected = 0;
  for (const dfs::ChunkId c : planned.nn.chunks_on_node(5))
    expected += planned.nn.chunk(c).size;
  ASSERT_GT(expected, 0u);

  sim::FaultPlan plan;
  plan.events.push_back(make_event(2.0, sim::FaultKind::kCrash, 5));
  sim::FaultStats stats;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  run_single_data(cfg, 80, Method::kOpass);
  EXPECT_EQ(stats.rereplicated_bytes, expected);
  EXPECT_EQ(stats.replicas_copied, planned.nn.chunks_on_node(5).size());
}

TEST(FaultE2E, StragglerDetectionRespectsTheThreshold) {
  // Deep straggler (0.2x): the slow node's serve tail must clear the
  // lag_factor * p90 bar; a mild one (0.9x) must not.
  for (const double factor : {0.2, 0.9}) {
    auto cfg = small_cfg();
    sim::FaultPlan plan;
    auto slow = make_event(1.0, sim::FaultKind::kSlow, 3);
    slow.factor = factor;
    plan.events.push_back(slow);
    runtime::ExecutionResult raw;
    cfg.faults = &plan;
    cfg.raw = &raw;
    run_single_data(cfg, 160, Method::kOpass);

    const auto analytics = obs::analyze_execution(raw, cfg.nodes);
    bool flagged = false;
    for (const auto& s : analytics.straggler_nodes) flagged |= (s.id == 3);
    EXPECT_EQ(flagged, factor < 0.5) << "factor " << factor;
  }
}

TEST(FaultE2E, DynamicSchedulerReplansAroundACrash) {
  auto cfg = small_cfg();
  sim::FaultPlan plan;
  plan.events.push_back(make_event(2.0, sim::FaultKind::kCrash, 5));
  sim::FaultStats stats;
  runtime::ExecutionResult raw;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  cfg.raw = &raw;

  const auto out = run_dynamic(cfg, 80, Method::kOpass);
  EXPECT_EQ(out.tasks_executed, 80u);
  EXPECT_EQ(stats.crashes, 1u);
  const auto report = core::audit_completion(80, executed_ids(raw));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FaultE2E, MultiPhaseRunsRejectAFaultPlan) {
  // A fault plan's heartbeats run to its horizon, so no second phase could
  // start before it: ParaView steps and iterative epochs refuse the plan
  // instead of silently running without it.
  auto cfg = small_cfg();
  sim::FaultPlan plan;
  plan.events.push_back(make_event(2.0, sim::FaultKind::kCrash, 5));
  cfg.faults = &plan;
  workload::ParaViewSpec spec;
  spec.dataset_count = 32;
  spec.datasets_per_step = 16;
  EXPECT_THROW(run_paraview(cfg, Method::kOpass, spec), std::invalid_argument);
  EXPECT_THROW(run_iterative(cfg, 32, /*epochs=*/2, Method::kBaseline),
               std::invalid_argument);
}

TEST(FaultE2E, ChurnRunStaysDeterministic) {
  auto cfg = small_cfg();
  cfg.replication = 2;
  sim::FaultPlan plan;
  plan.events.push_back(make_event(2.0, sim::FaultKind::kJoin, dfs::kInvalidNode));
  auto rebalance = make_event(4.0, sim::FaultKind::kRebalance, dfs::kInvalidNode);
  rebalance.tolerance = 2;
  plan.events.push_back(rebalance);
  plan.events.push_back(make_event(8.0, sim::FaultKind::kDecommission, 2));

  auto run = [&] {
    sim::FaultStats stats;
    ExperimentConfig c = cfg;
    c.faults = &plan;
    c.fault_stats = &stats;
    const auto out = run_single_data(c, 80, Method::kOpass);
    return std::pair<Seconds, Bytes>(out.makespan, stats.rereplicated_bytes);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.second, 0u);
}

}  // namespace
}  // namespace opass::exp
