// End-to-end thread-count determinism (DESIGN.md §12): an exp-harness run
// with ExperimentConfig::threads > 1 must produce byte-identical results to
// the serial run — every I/O time, trace record, deterministic metric and
// fault-recovery counter — across every scenario, including a crash-fault
// run whose re-plans run on the pooled Dinic. Only the planner borrows the
// pool; simulation and execution are serial at every thread count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/metrics_io.hpp"

namespace opass::exp {
namespace {

ExperimentConfig small_cfg(std::uint32_t threads) {
  ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 42;
  cfg.threads = threads;
  return cfg;
}

/// Exact comparison of two run outputs (EXPECT_EQ on doubles on purpose:
/// the contract is byte-identity, not closeness).
void expect_identical(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.local_fraction, b.local_fraction);
  EXPECT_EQ(a.planned_local_fraction, b.planned_local_fraction);
  EXPECT_EQ(a.io_times, b.io_times);
  EXPECT_EQ(a.served_mb, b.served_mb);
  EXPECT_EQ(a.io.count, b.io.count);
  EXPECT_EQ(a.io.mean, b.io.mean);
  EXPECT_EQ(a.io.max, b.io.max);
  EXPECT_EQ(a.io.sum, b.io.sum);
}

void expect_identical_raw(const runtime::ExecutionResult& a,
                          const runtime::ExecutionResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  const auto& ra = a.trace.records();
  const auto& rb = b.trace.records();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].serving_node, rb[i].serving_node) << "record " << i;
    EXPECT_EQ(ra[i].issue_time, rb[i].issue_time) << "record " << i;
    EXPECT_EQ(ra[i].end_time, rb[i].end_time) << "record " << i;
  }
}

TEST(ParallelDeterminism, SingleDataRunMatchesSerialBytes) {
  for (Method method : {Method::kBaseline, Method::kOpass}) {
    std::string serial_json;
    RunOutput serial;
    runtime::ExecutionResult serial_raw;
    {
      auto cfg = small_cfg(1);
      obs::MetricsRegistry metrics;
      cfg.metrics = &metrics;
      cfg.raw = &serial_raw;
      serial = run_single_data(cfg, 80, method);
      serial_json = obs::to_json(metrics);  // deterministic metrics only
    }
    for (std::uint32_t threads : {2u, 4u}) {
      auto cfg = small_cfg(threads);
      obs::MetricsRegistry metrics;
      runtime::ExecutionResult raw;
      cfg.metrics = &metrics;
      cfg.raw = &raw;
      const auto out = run_single_data(cfg, 80, method);
      expect_identical(out, serial);
      expect_identical_raw(raw, serial_raw);
      EXPECT_EQ(obs::to_json(metrics), serial_json)
          << method_name(method) << " threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, MultiDataRunMatchesSerialBytes) {
  auto run = [](std::uint32_t threads) {
    return run_multi_data(small_cfg(threads), 60, Method::kOpass);
  };
  const auto serial = run(1);
  expect_identical(run(4), serial);
}

TEST(ParallelDeterminism, CrashFaultRunMatchesSerialBytes) {
  // The hardest path: a mid-run crash aborts in-flight reads, the dynamic
  // scheduler re-plans on the pooled Dinic, and re-replication traffic
  // competes with the remaining reads.
  sim::FaultPlan plan;
  sim::FaultEvent crash;
  crash.at = 2.0;
  crash.kind = sim::FaultKind::kCrash;
  crash.node = 5;
  plan.events.push_back(crash);

  auto run = [&](std::uint32_t threads, sim::FaultStats& stats,
                 runtime::ExecutionResult& raw) {
    auto cfg = small_cfg(threads);
    cfg.faults = &plan;
    cfg.fault_stats = &stats;
    cfg.raw = &raw;
    return run_dynamic(cfg, 90, Method::kOpass);
  };
  sim::FaultStats serial_stats, pooled_stats;
  runtime::ExecutionResult serial_raw, pooled_raw;
  const auto serial = run(1, serial_stats, serial_raw);
  const auto pooled = run(4, pooled_stats, pooled_raw);

  expect_identical(pooled, serial);
  expect_identical_raw(pooled_raw, serial_raw);
  EXPECT_EQ(pooled_stats.crashes, serial_stats.crashes);
  EXPECT_EQ(pooled_stats.recoveries, serial_stats.recoveries);
  EXPECT_EQ(pooled_stats.lost_chunks, serial_stats.lost_chunks);
  EXPECT_EQ(pooled_stats.rereplicated_bytes, serial_stats.rereplicated_bytes);
}

TEST(ParallelDeterminism, ParaViewStepsMatchSerialBytes) {
  auto run = [](std::uint32_t threads) {
    return run_paraview(small_cfg(threads), Method::kOpass);
  };
  const auto serial = run(1);
  const auto pooled = run(4);
  expect_identical(pooled.run, serial.run);
  EXPECT_EQ(pooled.step_times, serial.step_times);
  EXPECT_EQ(pooled.total_time, serial.total_time);
}

TEST(ParallelDeterminism, IterativeEpochsMatchSerialBytes) {
  auto run = [](std::uint32_t threads) {
    return run_iterative(small_cfg(threads), 64, 3, Method::kOpass, 0.05);
  };
  const auto serial = run(1);
  const auto pooled = run(4);
  expect_identical(pooled.run, serial.run);
  EXPECT_EQ(pooled.epoch_times, serial.epoch_times);
  EXPECT_EQ(pooled.total_time, serial.total_time);
}

}  // namespace
}  // namespace opass::exp
