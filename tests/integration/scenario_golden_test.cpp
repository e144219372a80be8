// Golden digests of every scenario output the exp harness produces.
//
// Each case runs one scenario under one method with the metrics, raw, span,
// timeline and fault-counter sinks on, and pins an FNV-1a-64 digest (plus
// byte size) of everything it hands back: every RunOutput field, the per-step
// or per-epoch times and their total, the raw execution (doubles in exact
// hex-float form), the metrics JSON, the span document, the timeline JSON and
// the FaultStats. The digests were captured from the five hand-wired
// run_* bodies, so any rewrite of the harness must reproduce those runs byte
// for byte. All five scenarios run under both methods at one process per
// node; single, multi and dynamic also run under bench/faults/crash.json,
// and single and dynamic under a churn plan whose joined node serves reads.
// Each case also reruns with every sink off and with only the metrics sink
// on: the run-level aggregate is built only for observers, and the RunOutput
// must not depend on whether it was.
// The plan_* entry points are pinned separately (namespace-independent:
// placement plus assignment).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics_io.hpp"
#include "obs/report.hpp"
#include "sim/fault_plan.hpp"

namespace opass::exp {
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

std::string render(const RunOutput& run) {
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

std::string render(const PlannedScenario& sc) {
  std::string out = sc.single_data ? "single\n" : "multi\n";
  for (dfs::NodeId n : sc.placement) put(out, std::uint64_t{n});
  out += '\n';
  for (const auto& list : sc.assignment) {
    for (runtime::TaskId t : list) put(out, std::uint64_t{t});
    out += '\n';
  }
  put(out, std::uint64_t{sc.tasks.size()});
  put(out, std::uint64_t{sc.nn.chunk_count()});
  return out;
}

enum class Scenario { kSingle, kMulti, kDynamic, kParaView, kIterative };

/// Which observation sinks a run fills.
enum class Sinks { kAll, kNone, kMetricsOnly };

/// Every sink one run can fill, rendered into one document per sink.
struct Digests {
  std::string output, raw, metrics, spans, timeline, faults;
};

constexpr std::uint32_t kNodes = 24;

Digests run_digests(Scenario scenario, Method method, const sim::FaultPlan* faults,
                    Sinks sinks = Sinks::kAll) {
  ExperimentConfig cfg;
  cfg.nodes = kNodes;
  cfg.seed = 17;
  obs::MetricsRegistry metrics;
  runtime::ExecutionResult raw;
  obs::SpanLog spans;
  obs::TimelineRecorder::Options topt;
  topt.interval = 0.5;
  obs::TimelineRecorder timeline(topt);
  sim::FaultStats stats;
  if (sinks != Sinks::kNone) cfg.metrics = &metrics;
  if (sinks == Sinks::kAll) {
    cfg.raw = &raw;
    cfg.spans = &spans;
    cfg.timeline = &timeline;
    cfg.fault_stats = &stats;
  }
  cfg.faults = faults;

  std::string output;
  RunOutput run;
  switch (scenario) {
    case Scenario::kSingle:
      run = run_single_data(cfg, 240, method);
      break;
    case Scenario::kMulti:
      run = run_multi_data(cfg, 120, method);
      break;
    case Scenario::kDynamic: {
      workload::GenomicsSpec spec;
      spec.mean_compute_time = 0.1;
      run = run_dynamic(cfg, 192, method, spec);
      break;
    }
    case Scenario::kParaView: {
      workload::ParaViewSpec spec;
      spec.dataset_count = 96;
      spec.datasets_per_step = 24;
      const ParaViewOutput pv = run_paraview(cfg, method, spec);
      run = pv.run;
      for (Seconds t : pv.step_times) put(output, t);
      put(output, pv.total_time);
      break;
    }
    case Scenario::kIterative: {
      const IterativeOutput it =
          run_iterative(cfg, 144, /*epochs=*/3, method, /*compute=*/0.05);
      run = it.run;
      for (Seconds t : it.epoch_times) put(output, t);
      put(output, it.total_time);
      break;
    }
  }
  output += render(run);
  if (sinks != Sinks::kAll) return {digest(output), {}, {}, {}, {}, {}};

  obs::SpanDocBuilder span_doc;
  span_doc.add_method(method_name(method), spans, kNodes);
  obs::ReportBuilder report;
  obs::MethodReport mr;
  mr.name = method_name(method);
  mr.timeline = &timeline;
  mr.node_count = kNodes;
  report.add_method(std::move(mr));

  return {digest(output),
          digest(render(raw)),
          digest(obs::to_json(metrics)),
          digest(span_doc.spans_json()),
          digest(report.timeline_json()),
          digest(render(stats))};
}

std::string crash_plan_path() {
  return std::string(OPASS_SOURCE_DIR) + "/bench/faults/crash.json";
}

/// An empty node joins at 0.5 s and the balancer moves replicas onto it at
/// 1 s, so later reads are served by a node the run did not start with.
sim::FaultPlan churn_plan() {
  sim::FaultPlan plan;
  sim::FaultEvent join;
  join.at = 0.5;
  join.kind = sim::FaultKind::kJoin;
  plan.events.push_back(join);
  sim::FaultEvent rebalance;
  rebalance.at = 1.0;
  rebalance.kind = sim::FaultKind::kRebalance;
  plan.events.push_back(rebalance);
  return plan;
}

/// Bytes each node served in one sink-free run under `faults`.
std::vector<double> served_mb(Scenario scenario, Method method, const sim::FaultPlan& faults) {
  ExperimentConfig cfg;
  cfg.nodes = kNodes;
  cfg.seed = 17;
  cfg.faults = &faults;
  if (scenario == Scenario::kDynamic) {
    workload::GenomicsSpec spec;
    spec.mean_compute_time = 0.1;
    return run_dynamic(cfg, 192, method, spec).served_mb;
  }
  return run_single_data(cfg, 240, method).served_mb;
}

/// Runs one case with every sink on and compares its digests field by
/// field, so a failure names the sink that changed; then checks that the
/// output is the same with every sink off and with only the metrics sink on.
void expect_digests(Scenario scenario, Method method, const Digests& golden,
                    const sim::FaultPlan* faults = nullptr) {
  const Digests d = run_digests(scenario, method, faults);
  EXPECT_EQ(d.output, golden.output);
  EXPECT_EQ(d.raw, golden.raw);
  EXPECT_EQ(d.metrics, golden.metrics);
  EXPECT_EQ(d.spans, golden.spans);
  EXPECT_EQ(d.timeline, golden.timeline);
  EXPECT_EQ(d.faults, golden.faults);
  EXPECT_EQ(run_digests(scenario, method, faults, Sinks::kNone).output, golden.output)
      << "every sink off";
  EXPECT_EQ(run_digests(scenario, method, faults, Sinks::kMetricsOnly).output, golden.output)
      << "metrics sink only";
}

TEST(ScenarioGolden, SingleBaseline) {
  expect_digests(Scenario::kSingle, Method::kBaseline,
                 {"5326:fb8a1b98bb77fd00", "49361:3a26060b7b04b0a2",
                  "20984:eedcc7fb1fc44bb2", "207403:15d1b9812dc28eed",
                  "25171:f4f16467028cba6c", "14:1e56bb40675a2a0d"});
}

TEST(ScenarioGolden, SingleOpass) {
  expect_digests(Scenario::kSingle, Method::kOpass,
                 {"5392:d4dfee2e90cbdff9", "44185:934a54cd168c1ac0",
                  "20914:88003ed563827fa7", "185055:51431747bee07fb3",
                  "13893:899792b68786bc95", "14:1e56bb40675a2a0d"});
}

TEST(ScenarioGolden, MultiBaseline) {
  expect_digests(Scenario::kMulti, Method::kBaseline,
                 {"7795:7d1ca1bfbe0b03f6", "61869:a4f41d37b6ce8a6c",
                  "20992:6e551e58c5103134", "259549:1223b3f099c87e33",
                  "16806:2f8f1970249f157b", "14:1e56bb40675a2a0d"});
}

TEST(ScenarioGolden, MultiOpass) {
  expect_digests(Scenario::kMulti, Method::kOpass,
                 {"7825:6ac07cc1f73b58ae", "57638:4ddd39154a4fb381",
                  "20934:88219057d38b774c", "241369:7d2f4622cbd0f0ab",
                  "15276:a2ed111e9cb79525", "14:1e56bb40675a2a0d"});
}

TEST(ScenarioGolden, DynamicBaseline) {
  expect_digests(Scenario::kDynamic, Method::kBaseline,
                 {"4345:ddd2d53d04c49089", "39917:34d8f5f1ab5fc762",
                  "20980:9fe010b144312849", "186425:0c57f9ba74ba33b7",
                  "19253:341c68c6461ba840", "14:1e56bb40675a2a0d"});
}

TEST(ScenarioGolden, DynamicOpass) {
  expect_digests(Scenario::kDynamic, Method::kOpass,
                 {"4383:b5fd18c9caa588d3", "35165:0fb96389ea0d22a1",
                  "21194:0b20db4249d381e1", "164226:7b62d88a1d9f9ea8",
                  "12908:a98172a808fb46bd", "14:1e56bb40675a2a0d"});
}

TEST(ScenarioGolden, ParaViewBaseline) {
  expect_digests(Scenario::kParaView, Method::kBaseline,
                 {"2513:15ca8f5d26495860", "17819:191dbdc06b98b83d",
                  "20828:ec00233b572250e0", "83387:1740e14ae91fa51d",
                  "19003:859ed0b2bc7afde5", "14:1e56bb40675a2a0d"});
}

TEST(ScenarioGolden, ParaViewOpass) {
  expect_digests(Scenario::kParaView, Method::kOpass,
                 {"2524:3a3720eadb83c22c", "17121:0fe476121ed871b3",
                  "20870:75beb6559eed0334", "82639:35ea0623b13e9c95",
                  "12175:1c97c65df1618fde", "14:1e56bb40675a2a0d"});
}

TEST(ScenarioGolden, IterativeBaseline) {
  expect_digests(Scenario::kIterative, Method::kBaseline,
                 {"9235:4b160433f1049a3e", "88659:7e27ba73aaa9fcde",
                  "21020:26b6da568a0ff46c", "406277:12a6f2828918ba82",
                  "46714:9fe90ecbc929139a", "14:1e56bb40675a2a0d"});
}

TEST(ScenarioGolden, IterativeOpass) {
  expect_digests(Scenario::kIterative, Method::kOpass,
                 {"9364:85244c56fb6805aa", "80757:74591b6137ab4864",
                  "20692:dae82b0f7c91a019", "372542:a1c17367de213609",
                  "19351:affc6bf6e4e0e7bf", "14:1e56bb40675a2a0d"});
}

TEST(ScenarioGolden, SingleBaselineUnderCrash) {
  const sim::FaultPlan crash = sim::load_fault_plan(crash_plan_path());
  expect_digests(Scenario::kSingle, Method::kBaseline,
                 {"5333:d663bc3aee094b35", "49677:dfb7abe8795751eb",
                  "20985:b2d6fb08aeb354d4", "209302:6b9ffb0c39604104",
                  "68669:a0e684215e78c54f", "24:59dc8ba7d65196f7"},
                 &crash);
}

TEST(ScenarioGolden, SingleOpassUnderCrash) {
  const sim::FaultPlan crash = sim::load_fault_plan(crash_plan_path());
  expect_digests(Scenario::kSingle, Method::kOpass,
                 {"5419:33c0c58718dabd4e", "44401:5d93600006d9ac1d",
                  "20905:96e5cceae2d259fa", "186261:090bf47d5e79bd0f",
                  "68311:3abb01dab3135fc4", "24:59dc8ba7d65196f7"},
                 &crash);
}

TEST(ScenarioGolden, MultiBaselineUnderCrash) {
  const sim::FaultPlan crash = sim::load_fault_plan(crash_plan_path());
  expect_digests(Scenario::kMulti, Method::kBaseline,
                 {"7790:932dfa4ac8c1fb56", "61834:2f50549ae52d543f",
                  "21003:28c08cd36b8a458b", "259757:2fcac7024c0b9d0d",
                  "67578:b00173a18416fa3c", "23:9ef4287c6fdbcef0"},
                 &crash);
}

TEST(ScenarioGolden, MultiOpassUnderCrash) {
  const sim::FaultPlan crash = sim::load_fault_plan(crash_plan_path());
  expect_digests(Scenario::kMulti, Method::kOpass,
                 {"7831:4f0ab4fe590ac22e", "57616:b49c26287f56a742",
                  "20934:8beec88b71d097f2", "241056:48cae2d8cc3130b3",
                  "67358:59e79f080f2e9ac5", "23:9ef4287c6fdbcef0"},
                 &crash);
}

TEST(ScenarioGolden, DynamicBaselineUnderCrash) {
  const sim::FaultPlan crash = sim::load_fault_plan(crash_plan_path());
  expect_digests(Scenario::kDynamic, Method::kBaseline,
                 {"4367:f59c2669d059fd30", "39988:eed3a86fa34c67b1",
                  "20969:74b3578744a1d456", "187313:924009757f6be66d",
                  "68169:89a8d6590ef54820", "24:59dc8ba7d65196f7"},
                 &crash);
}

TEST(ScenarioGolden, DynamicOpassUnderCrash) {
  const sim::FaultPlan crash = sim::load_fault_plan(crash_plan_path());
  expect_digests(Scenario::kDynamic, Method::kOpass,
                 {"4405:bc0337462029300a", "35323:1eace6c38008e7d6",
                  "21157:f3da399ed2c13fcd", "165201:c49e95bb51d8fcd1",
                  "67837:8d32c9cdce57de1e", "24:59dc8ba7d65196f7"},
                 &crash);
}

// The joined node has its own served_mb entry, and it serves reads: the
// per-node series grows with the namenode during the run. The output, raw,
// span and fault digests are those of the end-of-run reduction the
// per-phase fold replaced; the metrics and timeline sinks report the
// joined node's reads too.
void expect_joiner_served(Scenario scenario, Method method, const sim::FaultPlan& churn) {
  const std::vector<double> served = served_mb(scenario, method, churn);
  ASSERT_EQ(served.size(), kNodes + 1);
  EXPECT_GT(served.back(), 0.0);
}

TEST(ScenarioGolden, SingleBaselineUnderChurn) {
  const sim::FaultPlan churn = churn_plan();
  expect_digests(Scenario::kSingle, Method::kBaseline,
                 {"5322:5316c1c133313d64", "48962:503999b700d1163e",
                  "21613:21fe6940db10fbc1", "203500:d0b4c0569f9d2c6f",
                  "69773:3e91407a15819b71", "24:c85f8fc5df9ba1fb"},
                 &churn);
  expect_joiner_served(Scenario::kSingle, Method::kBaseline, churn);
}

TEST(ScenarioGolden, DynamicBaselineUnderChurn) {
  const sim::FaultPlan churn = churn_plan();
  expect_digests(Scenario::kDynamic, Method::kBaseline,
                 {"4337:3a02d719d6067234", "38962:f0a4a70f8174bce5",
                  "21614:166fb5c38741486a", "180163:851f79e5a4e8dc59",
                  "68691:be607f18472fc311", "24:860b94ec7c6a2ce9"},
                 &churn);
  expect_joiner_served(Scenario::kDynamic, Method::kBaseline, churn);
}

TEST(ScenarioGolden, PlannedAssignments) {
  ExperimentConfig cfg;
  cfg.nodes = kNodes;
  cfg.seed = 17;
  EXPECT_EQ(digest(render(plan_single_data(cfg, 240, Method::kBaseline))),
            "952:f2f9e9a638bfea39");
  EXPECT_EQ(digest(render(plan_single_data(cfg, 240, Method::kOpass))),
            "952:d15259af5967663b");
  EXPECT_EQ(digest(render(plan_multi_data(cfg, 120, Method::kBaseline))),
            "471:64528168223ab3b4");
  EXPECT_EQ(digest(render(plan_multi_data(cfg, 120, Method::kOpass))),
            "471:1a4da1e33ecb212a");
}

}  // namespace
}  // namespace opass::exp
