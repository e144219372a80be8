// Golden digests for runs whose per-read lists outgrow their inline storage.
//
// ChunkInfo::replicas and Task::inputs keep four entries inline and a flow's
// resource path keeps six; beyond that they spill to the heap. Each scenario
// below drives one of those lists past its inline capacity and pins an
// FNV-1a-64 digest of everything the run produced: every read record and
// task span (doubles in exact hex-float form), the per-read causal
// breakdowns, the reduced RunOutput and any fault counters. The digests were
// captured with plain std::vector storage, so the inline containers must
// reproduce those runs byte for byte.
//
//   - replication 6: six replicas per chunk (single and multi data);
//   - a decommission plan: draining a node briefly holds r + 1 replicas;
//   - five inputs per task: multi-input task tables past four inputs;
//   - a rack topology with a crash plan: a cross-rack re-replication copy
//     crosses six resources (source disk, NIC out, rack up, rack down,
//     destination NIC in and destination disk).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "exp/experiment.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task_source.hpp"
#include "sim/fault_plan.hpp"
#include "sim/heartbeat.hpp"
#include "workload/dataset.hpp"

namespace opass {
namespace {

/// "<size>:<FNV-1a-64 hex>" of one document.
std::string digest(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%zu:%016" PRIx64, s.size(), h);
  return buf;
}

void put(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a ", v);
  out += buf;
}

void put(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ' ';
}

/// Every field of an execution, in record order.
std::string render(const runtime::ExecutionResult& exec) {
  std::string out;
  for (const sim::ReadRecord& r : exec.trace.records()) {
    put(out, std::uint64_t{r.process});
    put(out, std::uint64_t{r.reader_node});
    put(out, std::uint64_t{r.serving_node});
    put(out, std::uint64_t{r.chunk});
    put(out, std::uint64_t{r.task});
    put(out, std::uint64_t{r.bytes});
    put(out, r.issue_time);
    put(out, r.end_time);
    out += r.local ? "L\n" : "R\n";
  }
  for (const runtime::TaskSpan& s : exec.task_spans) {
    put(out, std::uint64_t{s.process});
    put(out, std::uint64_t{s.task});
    put(out, s.start);
    put(out, s.end);
    out += '\n';
  }
  for (const sim::ReadBreakdown& b : exec.read_breakdowns) {
    put(out, static_cast<std::uint64_t>(b.issue_ticks));
    put(out, static_cast<std::uint64_t>(b.admit_ticks));
    put(out, static_cast<std::uint64_t>(b.transfer_start_ticks));
    put(out, static_cast<std::uint64_t>(b.end_ticks));
    for (const sim::BindingInterval& iv : b.transfer) {
      put(out, static_cast<std::uint64_t>(iv.start_ticks));
      put(out, static_cast<std::uint64_t>(iv.end_ticks));
      put(out, std::uint64_t{iv.resource});
    }
    out += '\n';
  }
  for (Seconds t : exec.process_finish_time) put(out, t);
  for (Seconds t : exec.barrier_stall) put(out, t);
  put(out, exec.makespan);
  put(out, std::uint64_t{exec.tasks_executed});
  put(out, std::uint64_t{exec.read_failures});
  return out;
}

std::string render(const exp::RunOutput& run) {
  std::string out;
  put(out, run.io.mean);
  put(out, run.io.stddev);
  put(out, run.io.min);
  put(out, run.io.max);
  put(out, run.io.median);
  put(out, run.io.p95);
  put(out, run.io.sum);
  for (double t : run.io_times) put(out, t);
  for (double mb : run.served_mb) put(out, mb);
  put(out, run.local_fraction);
  put(out, run.planned_local_fraction);
  put(out, run.makespan);
  put(out, std::uint64_t{run.tasks_executed});
  return out;
}

std::string render(const sim::FaultStats& s) {
  std::string out;
  for (std::uint64_t v :
       {std::uint64_t{s.crashes}, std::uint64_t{s.decommissions}, std::uint64_t{s.recoveries},
        std::uint64_t{s.replicas_copied}, std::uint64_t{s.rereplicated_bytes},
        std::uint64_t{s.lost_chunks}, std::uint64_t{s.aborted_copies}})
    put(out, v);
  return out;
}

enum class Scenario { kSingle, kMulti };

/// Digest of one scenario run under `method`, causal breakdowns on.
std::string run_digest(Scenario scenario, exp::ExperimentConfig cfg, std::uint32_t tasks,
                       exp::Method method, const workload::MultiInputSpec& spec = {},
                       sim::FaultStats* stats_out = nullptr) {
  runtime::ExecutionResult raw;
  obs::SpanLog spans;
  sim::FaultStats stats;
  cfg.raw = &raw;
  cfg.spans = &spans;
  cfg.fault_stats = &stats;
  const exp::RunOutput out = scenario == Scenario::kSingle
                                 ? exp::run_single_data(cfg, tasks, method)
                                 : exp::run_multi_data(cfg, tasks, method, spec);
  if (stats_out != nullptr) *stats_out = stats;
  return digest(render(raw) + render(out) + render(stats));
}

TEST(SpillGolden, SingleDataSixReplicas) {
  exp::ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.replication = 6;
  cfg.seed = 126;
  ASSERT_EQ(exp::plan_single_data(cfg, 160, exp::Method::kOpass).nn.chunk(0).replicas.size(),
            6u);
  EXPECT_EQ(run_digest(Scenario::kSingle, cfg, 160, exp::Method::kBaseline),
            "35708:f4c0006a950c3463");
  EXPECT_EQ(run_digest(Scenario::kSingle, cfg, 160, exp::Method::kOpass),
            "32879:568b5f7d840b54a8");
}

TEST(SpillGolden, MultiDataSixReplicas) {
  exp::ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.replication = 6;
  cfg.seed = 127;
  EXPECT_EQ(run_digest(Scenario::kMulti, cfg, 96, exp::Method::kBaseline),
            "54618:5ee1896c92addc35");
  EXPECT_EQ(run_digest(Scenario::kMulti, cfg, 96, exp::Method::kOpass),
            "50732:f12addd828918c22");
}

TEST(SpillGolden, FiveInputTasks) {
  exp::ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 128;
  workload::MultiInputSpec spec;
  spec.input_sizes = {30 * kMiB, 20 * kMiB, 10 * kMiB, 5 * kMiB, 1 * kMiB};
  ASSERT_EQ(exp::plan_multi_data(cfg, 64, exp::Method::kOpass, spec).tasks[0].inputs.size(),
            5u);
  EXPECT_EQ(run_digest(Scenario::kMulti, cfg, 64, exp::Method::kBaseline, spec),
            "59005:fe499eb67c4cb7ce");
  EXPECT_EQ(run_digest(Scenario::kMulti, cfg, 64, exp::Method::kOpass, spec),
            "56640:f7d9fb854df7d243");
}

TEST(SpillGolden, DecommissionDrain) {
  // A drain copies each of the node's chunks away before unregistering the
  // source replica, so every moved chunk holds r + 1 replicas for the length
  // of its copy: five at r = 4, one past the inline four.
  const sim::FaultPlan plan = sim::parse_fault_plan(
      R"({"horizon": 60.0, "max_concurrent_copies": 2, "events": [)"
      R"({"at": 0.5, "kind": "decommission", "node": 3}]})");
  exp::ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.replication = 4;
  cfg.seed = 126;
  cfg.faults = &plan;
  sim::FaultStats stats;
  EXPECT_EQ(run_digest(Scenario::kSingle, cfg, 128, exp::Method::kBaseline, {}, &stats),
            "29344:2a2af35ac4e44b7a");
  EXPECT_EQ(stats.decommissions, 1u);
  EXPECT_GT(stats.replicas_copied, 0u);
  EXPECT_EQ(run_digest(Scenario::kSingle, cfg, 128, exp::Method::kOpass),
            "26279:3126c75e15ad16e3");
}

/// Counts re-replication copies whose source and destination sit on
/// different racks — the six-resource copy path.
class CrossRackCopies : public sim::FaultProbe {
 public:
  explicit CrossRackCopies(const dfs::Topology& topo) : topo_(topo) {}
  void on_fault(Seconds, const sim::FaultEvent&) override {}
  void on_detection(Seconds, dfs::NodeId) override {}
  void on_copy(Seconds, dfs::ChunkId, dfs::NodeId src, dfs::NodeId dst, Bytes) override {
    if (topo_.rack_of(src) != topo_.rack_of(dst)) ++count;
  }
  void on_recovery_complete(Seconds, dfs::NodeId) override {}
  std::uint32_t count = 0;

 private:
  const dfs::Topology& topo_;
};

TEST(SpillGolden, RackTopologyCrossRackCopies) {
  const dfs::Topology topo = dfs::Topology::uniform_racks(16, 4);
  dfs::NameNode nn(topo, /*replication=*/3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(126);
  const auto tasks = workload::make_single_data_workload(nn, 128, policy, rng);

  sim::ClusterParams params;
  params.rack_uplink_bandwidth = 2.0 * params.nic_bandwidth;
  sim::Cluster cluster(topo, params);
  const sim::FaultPlan plan = sim::parse_fault_plan(
      R"({"horizon": 60.0, "max_concurrent_copies": 4, "events": [)"
      R"({"at": 1.0, "kind": "crash", "node": 5}]})");
  Rng fault_rng(127);
  sim::HeartbeatMonitor monitor(cluster, nn, /*namenode_host=*/0, fault_rng);
  sim::FaultInjector injector(cluster, nn, monitor, plan);
  CrossRackCopies probe(topo);
  injector.set_probe(&probe);
  injector.arm();
  monitor.start(plan.horizon);

  runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(128, 16));
  runtime::ExecutorConfig ec;
  ec.record_read_breakdown = true;
  Rng exec_rng(128);
  const auto exec = runtime::execute(cluster, nn, tasks, source, exec_rng, ec);
  EXPECT_GT(probe.count, 0u);
  EXPECT_EQ(digest(render(exec) + render(injector.stats())), "26470:1768ec653e067ec9");
}

}  // namespace
}  // namespace opass
