// Golden-digest suite for the observation sinks.
//
// Builds every document opass_cli writes — metrics (JSON and CSV), Chrome
// trace, timeline JSON, HTML report, span log and critical path (JSON and
// text) — in-process through the same public obs calls the CLI makes, and
// pins an FNV-1a-64 digest plus the byte size of each. The service-trace
// replay's rendering and timeline are pinned the same way.
//
// The digests were captured from the snprintf-based renderers; the
// append-in-place renderers must keep every one of them. The scenarios are
// small but reach each event shape: the dynamic crash run has fault instant
// ("i") events, counter ("C") tracks, span breakdowns and a partial trailing
// timeline tick; the iterative (BSP) run adds critical-path flow ("s"/"f")
// arrows; the multi-data run covers multi-input tasks.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/service_trace.hpp"
#include "obs/analytics.hpp"
#include "obs/attribution.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/fault_log.hpp"
#include "obs/metrics_io.hpp"
#include "obs/report.hpp"
#include "sim/fault_plan.hpp"

namespace opass::obs {
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

std::string source_path(const std::string& rel) {
  return std::string(OPASS_SOURCE_DIR) + "/" + rel;
}

/// Every CLI sink on, as opass_cli's ObsSinks holds them.
struct Sinks {
  MetricsRegistry registry;
  ChromeTraceBuilder trace;
  ReportBuilder report;
  SpanDocBuilder span_doc;
  std::vector<std::unique_ptr<TimelineRecorder>> timelines;
  std::vector<std::unique_ptr<SpanLog>> span_logs;
};

/// One method, wired the way opass_cli's run_method wires it.
void run_method(const std::string& scenario, exp::Method method,
                const exp::ExperimentConfig& cfg, std::uint32_t tasks,
                const sim::FaultPlan* faults, Sinks& sinks) {
  exp::ExperimentConfig run_cfg = cfg;
  runtime::ExecutionResult raw;
  run_cfg.metrics = &sinks.registry;
  run_cfg.raw = &raw;
  TimelineRecorder::Options topt;
  topt.interval = 0.5;
  TimelineRecorder* recorder =
      sinks.timelines.emplace_back(std::make_unique<TimelineRecorder>(topt)).get();
  run_cfg.timeline = recorder;
  SpanLog* span_log = sinks.span_logs.emplace_back(std::make_unique<SpanLog>()).get();
  run_cfg.spans = span_log;
  std::unique_ptr<FaultEventLog> fault_log;
  sim::FaultStats fault_stats;
  if (faults != nullptr) {
    fault_log = std::make_unique<FaultEventLog>(recorder);
    run_cfg.faults = faults;
    run_cfg.fault_probe = fault_log.get();
    run_cfg.fault_stats = &fault_stats;
  }

  exp::RunOutput out;
  if (scenario == "dynamic") {
    workload::GenomicsSpec spec;
    spec.mean_compute_time = 0.1;
    out = exp::run_dynamic(run_cfg, tasks, method, spec);
  } else if (scenario == "iterative") {
    out = exp::run_iterative(run_cfg, tasks, /*epochs=*/4, method, /*compute=*/0.0).run;
  } else {
    out = exp::run_multi_data(run_cfg, tasks, method);
  }

  const std::uint32_t pid = method == exp::Method::kBaseline ? 0 : 1;
  sinks.trace.set_process_name(pid, exp::method_name(method));
  sinks.trace.add_execution(raw, pid);
  sinks.span_doc.add_method(exp::method_name(method), *span_log, cfg.nodes);
  add_critical_path_flows(sinks.trace, *span_log,
                          sinks.span_doc.path(sinks.span_doc.method_count() - 1), pid);
  MethodReport mr;
  mr.name = exp::method_name(method);
  mr.timeline = recorder;
  mr.analytics = analyze_execution(raw, cfg.nodes);
  mr.makespan = out.makespan;
  mr.local_fraction = out.local_fraction;
  mr.spans = span_log;
  mr.node_count = cfg.nodes;
  sinks.report.add_method(std::move(mr));
  add_timeline_counters(sinks.trace, *recorder, pid);
  if (fault_log) fault_log->add_instants(sinks.trace, pid);
}

/// Both methods of one scenario, rendered into every CLI document.
struct Documents {
  std::string metrics_json, metrics_csv, trace, timeline, report, spans, critical_path,
      critical_path_text;
};

Documents run_scenario(const std::string& scenario, std::uint32_t nodes,
                       std::uint32_t tasks, std::uint64_t seed,
                       const sim::FaultPlan* faults = nullptr) {
  exp::ExperimentConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  Sinks sinks;
  run_method(scenario, exp::Method::kBaseline, cfg, tasks, faults, sinks);
  run_method(scenario, exp::Method::kOpass, cfg, tasks, faults, sinks);
  Documents d;
  d.metrics_json = to_json(sinks.registry);
  d.metrics_csv = to_csv(sinks.registry);
  d.trace = sinks.trace.json();
  d.timeline = sinks.report.timeline_json();
  d.report = sinks.report.html();
  d.spans = sinks.span_doc.spans_json();
  d.critical_path = sinks.span_doc.critical_path_json();
  d.critical_path_text = sinks.span_doc.critical_path_text();
  return d;
}

TEST(SinkGolden, DynamicUnderCrashPlan) {
  const sim::FaultPlan crash = sim::load_fault_plan(source_path("bench/faults/crash.json"));
  const Documents d = run_scenario("dynamic", 32, 256, 7, &crash);
  // The event shapes this scenario is here to cover.
  EXPECT_NE(d.trace.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(d.trace.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(d.spans.find("\"breakdown\": [{"), std::string::npos);
  EXPECT_EQ(d.timeline.find("\"partial_duration\": 0,"), std::string::npos);
  EXPECT_EQ(digest(d.metrics_json), "54830:46cd4df48ba13447");
  EXPECT_EQ(digest(d.metrics_csv), "31823:02d3b44360e51b44");
  EXPECT_EQ(digest(d.trace), "612326:8a65aab998f8a61d");
  EXPECT_EQ(digest(d.timeline), "179526:57ee3b05bd7b6f71");
  EXPECT_EQ(digest(d.report), "27818:cfd4f3ffcb05754e");
  EXPECT_EQ(digest(d.spans), "468314:fd465c77023e8bb1");
  EXPECT_EQ(digest(d.critical_path), "3094:66de7890a761b0c5");
  EXPECT_EQ(digest(d.critical_path_text), "744:c6ce8234effae02b");
}

TEST(SinkGolden, IterativeBspFlows) {
  const Documents d = run_scenario("iterative", 16, 64, 42);
  EXPECT_NE(d.trace.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(d.trace.find("\"ph\": \"f\", \"bp\": \"e\""), std::string::npos);
  EXPECT_EQ(digest(d.metrics_json), "29175:3711f664a818b95e");
  EXPECT_EQ(digest(d.metrics_csv), "17264:9f719468e868cb79");
  EXPECT_EQ(digest(d.trace), "247146:8ab8d54085b5fc58");
  EXPECT_EQ(digest(d.timeline), "39109:943be430830e0dfe");
  EXPECT_EQ(digest(d.report), "11721:469474d38e3d9f8e");
  EXPECT_EQ(digest(d.spans), "413066:1bc6a3100e61640c");
  EXPECT_EQ(digest(d.critical_path), "4718:deeca4b5d9aa95ca");
  EXPECT_EQ(digest(d.critical_path_text), "619:9b9142c8540e1eba");
}

TEST(SinkGolden, MultiData) {
  const Documents d = run_scenario("multi", 32, 320, 42);
  EXPECT_EQ(digest(d.metrics_json), "54691:15771bceb7cc6567");
  EXPECT_EQ(digest(d.metrics_csv), "31836:a7b9834b94470a38");
  EXPECT_EQ(digest(d.trace), "499524:7f5a55a01efe60ec");
  EXPECT_EQ(digest(d.timeline), "62616:75e1cc18cc90112b");
  EXPECT_EQ(digest(d.report), "11055:bbeee1db5ad69bc9");
  EXPECT_EQ(digest(d.spans), "1363242:7d5344131a51f9d6");
  EXPECT_EQ(digest(d.critical_path), "3712:0621c80e3d3c4543");
  EXPECT_EQ(digest(d.critical_path_text), "819:37f73afe3def4277");
}

TEST(SinkGolden, ServiceTraceReplay) {
  MetricsRegistry registry;
  TimelineRecorder::Options topt;
  topt.interval = 0.5;
  TimelineRecorder recorder(topt);
  SpanLog span_log;
  exp::ServiceTraceConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 42;
  cfg.batch_window = 0.5;
  cfg.metrics = &registry;
  cfg.timeline = &recorder;
  cfg.spans = &span_log;
  const exp::ServiceTraceOutput out = exp::replay_service_trace(
      cfg, exp::load_service_trace(source_path("bench/traces/service_small.trace")));
  ReportBuilder builder;
  MethodReport mr;
  mr.name = "service";
  mr.timeline = &recorder;
  mr.makespan = recorder.end_time();
  mr.local_fraction = out.local_byte_fraction;
  builder.add_method(std::move(mr));
  SpanDocBuilder doc;
  doc.add_method("service", span_log, /*node_count=*/0);
  EXPECT_EQ(digest(out.rendered), "1868:84610fe6eff28140");
  EXPECT_EQ(digest(to_json(registry)), "1580:2cd1846e5dad376c");
  EXPECT_EQ(digest(builder.timeline_json()), "1734:58e651005f7f2625");
  EXPECT_EQ(digest(doc.spans_json()), "3939:c178c229b63200aa");
  EXPECT_EQ(digest(doc.critical_path_json()), "360:64405cc0f100db74");
}

}  // namespace
}  // namespace opass::obs
