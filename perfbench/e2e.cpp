// perfbench_e2e — one scenario run of the end-to-end benchmark.
//
//   perfbench_e2e run   --scenario=multi --nodes=1024 --tasks=40960 --seed=42
//   perfbench_e2e trace --scenario=dynamic --nodes=1024 --tasks=40960
//                       --fault-plan=perfbench/faults/crash.json --sinks-dir=DIR
//
// Each invocation runs one scenario with both methods (baseline, then Opass)
// and prints one JSON object on stdout. run.py starts one process per
// scenario run, so the peak RSS it reads back is that run's own.
//
// `run` times the public scenario entry point (exp::run_multi_data,
// exp::run_iterative, exp::run_dynamic) the way opass_cli calls it; with
// --sinks-dir it also builds and writes every observation sink the CLI
// offers. After the timed part it checks that the written sinks parse, then
// times the layout calls (namespace, dataset, task table, process placement)
// of both methods --layout-reps times.
//
// `trace` runs the same scenario again from each layer's public functions,
// in the order exp:: calls them, with a wall-clock span around each call:
// workload.build (dfs + workload + placement), opass.plan (core::plan),
// runtime.execute (cluster + runtime::execute) and obs.<sink>. It reports
// every span's self time, the layer counters, and the simulated outputs,
// which run.py compares bit for bit with those of `run`. Plan and completion
// audits also run here, outside the traced wall time.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/options.hpp"
#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "dfs/placement.hpp"
#include "dfs/topology.hpp"
#include "exp/experiment.hpp"
#include "obs/analytics.hpp"
#include "obs/attribution.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/collect.hpp"
#include "obs/fault_log.hpp"
#include "obs/metrics_io.hpp"
#include "obs/report.hpp"
#include "opass/opass.hpp"
#include "opass/plan_audit.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace {

using namespace opass;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- scenario

struct Scenario {
  std::string kind;  ///< multi | iterative | dynamic
  exp::ExperimentConfig cfg;
  std::uint32_t tasks = 0;
  std::uint32_t epochs = 4;
  double compute = 0;
  std::optional<sim::FaultPlan> faults;
  std::string sinks_dir;  ///< empty = every sink off
};

constexpr exp::Method kMethods[] = {exp::Method::kBaseline, exp::Method::kOpass};

/// The CLI's observation bundle (opass_cli ObsSinks), all sinks on.
struct CliSinks {
  obs::MetricsRegistry registry;
  obs::ChromeTraceBuilder trace;
  obs::ReportBuilder report;
  obs::SpanDocBuilder span_doc;
  std::vector<std::unique_ptr<obs::TimelineRecorder>> timelines;
  std::vector<std::unique_ptr<obs::SpanLog>> span_logs;
  double sample_interval = 0.5;
};

/// One sink file and how the CLI renders and writes it.
struct SinkWriter {
  const char* name;  ///< file stem; the traced run's span is "obs.<name>"
  obs::IoStatus (*write)(const std::string& path, const CliSinks& s);
};

/// The sink files, in the CLI's write order.
const SinkWriter kSinks[] = {
    {"metrics", [](const std::string& p, const CliSinks& s) {
       return obs::write_metrics(s.registry, p);
     }},
    {"trace", [](const std::string& p, const CliSinks& s) {
       return obs::write_file(p, s.trace.json());
     }},
    {"timeline", [](const std::string& p, const CliSinks& s) {
       return obs::write_file(p, s.report.timeline_json());
     }},
    {"report", [](const std::string& p, const CliSinks& s) {
       return obs::write_file(p, s.report.html());
     }},
    {"spans", [](const std::string& p, const CliSinks& s) {
       return obs::write_file(p, s.span_doc.spans_json());
     }},
    {"critical_path", [](const std::string& p, const CliSinks& s) {
       return obs::write_file(p, s.span_doc.critical_path_json());
     }},
};

std::string sink_path(const Scenario& sc, const std::string& sink) {
  return sc.sinks_dir + "/" + sink + (sink == "report" ? ".html" : ".json");
}

/// Simulated outputs of one method, reduced the way the checks compare them.
struct MethodOutput {
  bool ok = false;
  std::string error;
  double makespan = 0;
  double local_fraction = 0;
  double planned_local_fraction = 0;
  double peak_over_mean = 0;
  double io_mean = 0;  ///< mean per-read I/O time (s)
  std::uint64_t served_digest = 0;
  std::uint64_t tasks_executed = 0;
};

void digest_served(MethodOutput& m, const std::vector<double>& served_mb) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the doubles' bits
  double sum = 0, peak = 0;
  for (double v : served_mb) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
    sum += v;
    peak = std::max(peak, v);
  }
  m.served_digest = h;
  m.peak_over_mean = sum > 0 ? peak / (sum / static_cast<double>(served_mb.size())) : 0;
}

MethodOutput from_run_output(const exp::RunOutput& out) {
  MethodOutput m;
  m.ok = true;
  m.makespan = out.makespan;
  m.local_fraction = out.local_fraction;
  m.planned_local_fraction = out.planned_local_fraction;
  m.tasks_executed = out.tasks_executed;
  m.io_mean = out.io.mean;
  digest_served(m, out.served_mb);
  return m;
}

// ------------------------------------------------------------- JSON output

class JsonOut {
 public:
  void key(const std::string& k) {
    sep();
    s_ += "\"" + k + "\": ";
    fresh_ = true;
  }
  void num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    put(buf);
  }
  void u64(std::uint64_t v) { put(std::to_string(v)); }
  void boolean(bool v) { put(v ? "true" : "false"); }
  void str(const std::string& v) {
    std::string e = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') e += '\\';
      e += (c == '\n' || c == '\t') ? ' ' : c;
    }
    put(e + "\"");
  }
  void open(char c) {
    put(std::string(1, c));
    fresh_ = true;
  }
  void close(char c) {
    s_ += c;
    fresh_ = false;
  }
  const std::string& text() const { return s_; }

 private:
  void sep() {
    if (!fresh_) s_ += ", ";
    fresh_ = false;
  }
  void put(const std::string& v) {
    sep();
    s_ += v;
  }
  std::string s_;
  bool fresh_ = true;
};

void write_method(JsonOut& j, const MethodOutput& m) {
  j.open('{');
  j.key("ok"), j.boolean(m.ok);
  j.key("error"), j.str(m.error);
  j.key("makespan"), j.num(m.makespan);
  j.key("local_fraction"), j.num(m.local_fraction);
  j.key("planned_local_fraction"), j.num(m.planned_local_fraction);
  j.key("peak_over_mean"), j.num(m.peak_over_mean);
  j.key("io_mean"), j.num(m.io_mean);
  j.key("served_digest"), j.str(std::to_string(m.served_digest));
  j.key("tasks_executed"), j.u64(m.tasks_executed);
  j.close('}');
}

// --------------------------------------------------------- sink validation

/// Buffered byte reader over a file, so validating a large sink never holds
/// the whole file in memory (the run's peak RSS stays the run's).
class ByteReader {
 public:
  explicit ByteReader(const std::string& path) : f_(std::fopen(path.c_str(), "rb")) {}
  ~ByteReader() {
    if (f_ != nullptr) std::fclose(f_);
  }
  ByteReader(const ByteReader&) = delete;
  ByteReader& operator=(const ByteReader&) = delete;

  bool is_open() const { return f_ != nullptr; }
  int peek() {
    if (pos_ == len_) {
      len_ = std::fread(buf_.data(), 1, buf_.size(), f_);
      pos_ = 0;
      if (len_ == 0) return -1;
    }
    return static_cast<unsigned char>(buf_[pos_]);
  }
  int get() {
    const int c = peek();
    if (c >= 0) {
      ++pos_;
      digest_ = (digest_ ^ static_cast<std::uint64_t>(c)) * 1099511628211ULL;
    }
    return c;
  }
  /// FNV-1a of the bytes consumed so far.
  std::uint64_t digest() const { return digest_; }
  void skip_ws() {
    for (int c = peek(); c == ' ' || c == '\n' || c == '\r' || c == '\t'; c = peek()) get();
  }

 private:
  std::FILE* f_;
  std::vector<char> buf_ = std::vector<char>(1 << 16);
  std::size_t pos_ = 0, len_ = 0;
  std::uint64_t digest_ = 1469598103934665603ULL;
};

/// Strict RFC 8259 syntax check (no DOM). Returns true iff `r` holds exactly
/// one JSON value, optionally surrounded by whitespace.
class JsonValidator {
 public:
  explicit JsonValidator(ByteReader& r) : r_(r) {}
  bool document() {
    r_.skip_ws();
    if (!value(0)) return false;
    r_.skip_ws();
    return r_.peek() < 0;
  }

 private:
  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p)
      if (r_.get() != *p) return false;
    return true;
  }
  bool digits() {
    if (r_.peek() < '0' || r_.peek() > '9') return false;
    while (r_.peek() >= '0' && r_.peek() <= '9') r_.get();
    return true;
  }
  bool number() {
    if (r_.peek() == '-') r_.get();
    if (r_.peek() == '0') {
      r_.get();
    } else if (!digits()) {
      return false;
    }
    if (r_.peek() == '.') {
      r_.get();
      if (!digits()) return false;
    }
    if (r_.peek() == 'e' || r_.peek() == 'E') {
      r_.get();
      if (r_.peek() == '+' || r_.peek() == '-') r_.get();
      if (!digits()) return false;
    }
    return true;
  }
  bool string() {
    if (r_.get() != '"') return false;
    for (;;) {
      const int c = r_.get();
      if (c < 0x20) return false;  // EOF or raw control character
      if (c == '"') return true;
      if (c != '\\') continue;
      const int e = r_.get();
      if (e <= 0) return false;
      if (e == 'u') {
        for (int i = 0; i < 4; ++i)
          if (!std::isxdigit(r_.get())) return false;
      } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
        return false;
      }
    }
  }
  bool value(int depth) {
    if (depth > 256) return false;
    r_.skip_ws();
    const int c = r_.peek();
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      r_.get();
      r_.skip_ws();
      if (r_.peek() == close) return r_.get() == close;
      for (;;) {
        if (c == '{') {
          r_.skip_ws();
          if (!string()) return false;
          r_.skip_ws();
          if (r_.get() != ':') return false;
        }
        if (!value(depth + 1)) return false;
        r_.skip_ws();
        const int next = r_.get();
        if (next == close) return true;
        if (next != ',') return false;
      }
    }
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  ByteReader& r_;
};

/// The HTML report is one self-contained page: check it opens and closes as
/// one document and that every inline chart is closed.
bool html_ok(ByteReader& r) {
  std::string head, window;
  long svg_balance = 0;
  for (int c = r.get(); c >= 0; c = r.get()) {
    if (head.size() < 15) head += static_cast<char>(c);
    window += static_cast<char>(c);
    if (window.size() > 8) window.erase(0, 1);
    const auto ends_with = [&](const char* s) {
      const std::size_t n = std::strlen(s);
      return window.size() >= n && window.compare(window.size() - n, n, s) == 0;
    };
    if (ends_with("<svg")) ++svg_balance;
    if (ends_with("</svg>")) --svg_balance;
  }
  while (!window.empty() && (window.back() == '\n' || window.back() == ' ')) window.pop_back();
  return head == "<!DOCTYPE html>" && window.size() >= 7 &&
         window.compare(window.size() - 7, 7, "</html>") == 0 && svg_balance == 0;
}

/// Size and content digest of one written sink file.
struct SinkFile {
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;
};

/// Check that every sink file of the run exists and parses, record its size
/// and digest, and delete it. Returns false if any file is missing or
/// malformed.
bool check_and_remove_sinks(const Scenario& sc, std::map<std::string, SinkFile>& files) {
  bool ok = true;
  for (const SinkWriter& w : kSinks) {
    const std::string sink = w.name;
    const std::string path = sink_path(sc, sink);
    bool parses = false;
    {
      ByteReader r(path);
      if (r.is_open()) {
        if (sink == "report") {
          parses = html_ok(r);
        } else {
          JsonValidator v(r);
          parses = v.document();
        }
      }
      std::error_code ec;
      const auto size = std::filesystem::file_size(path, ec);
      files[sink] = {ec ? 0 : static_cast<std::uint64_t>(size), r.digest()};
    }
    if (!parses) {
      std::fprintf(stderr, "sink %s missing or malformed\n", path.c_str());
      ok = false;
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  return ok;
}

void write_sinks(JsonOut& j, const std::map<std::string, SinkFile>& files) {
  j.key("sinks"), j.open('{');
  for (const auto& [sink, f] : files) {
    j.key(sink), j.open('{');
    j.key("bytes"), j.u64(f.bytes);
    j.key("digest"), j.str(std::to_string(f.digest));
    j.close('}');
  }
  j.close('}');
}

// ------------------------------------------------ CLI-equivalent timed run

exp::RunOutput call_scenario(const Scenario& sc, const exp::ExperimentConfig& cfg,
                             exp::Method method) {
  if (sc.kind == "multi") return exp::run_multi_data(cfg, sc.tasks, method);
  if (sc.kind == "iterative")
    return exp::run_iterative(cfg, sc.tasks, sc.epochs, method, sc.compute).run;
  if (sc.kind == "dynamic") {
    workload::GenomicsSpec spec;
    spec.mean_compute_time = sc.compute;
    return exp::run_dynamic(cfg, sc.tasks, method, spec);
  }
  throw std::invalid_argument("unknown scenario '" + sc.kind + "'");
}

/// One method, as opass_cli's run_method drives it.
exp::RunOutput run_method(const Scenario& sc, exp::Method method, CliSinks* sinks) {
  exp::ExperimentConfig cfg = sc.cfg;
  if (sc.faults) cfg.faults = &*sc.faults;
  if (sinks == nullptr) {
    sim::FaultStats stats;
    if (sc.faults) cfg.fault_stats = &stats;
    return call_scenario(sc, cfg, method);
  }
  runtime::ExecutionResult raw;
  cfg.metrics = &sinks->registry;
  cfg.raw = &raw;
  obs::TimelineRecorder::Options topt;
  topt.interval = sinks->sample_interval;
  obs::TimelineRecorder* recorder =
      sinks->timelines.emplace_back(std::make_unique<obs::TimelineRecorder>(topt)).get();
  cfg.timeline = recorder;
  obs::SpanLog* span_log = sinks->span_logs.emplace_back(std::make_unique<obs::SpanLog>()).get();
  cfg.spans = span_log;
  std::unique_ptr<obs::FaultEventLog> fault_log;
  sim::FaultStats fault_stats;
  if (sc.faults) {
    fault_log = std::make_unique<obs::FaultEventLog>(recorder);
    cfg.fault_probe = fault_log.get();
    cfg.fault_stats = &fault_stats;
  }
  const exp::RunOutput out = call_scenario(sc, cfg, method);

  const std::uint32_t pid = method == exp::Method::kBaseline ? 0 : 1;
  sinks->trace.set_process_name(pid, exp::method_name(method));
  sinks->trace.add_execution(raw, pid);
  sinks->span_doc.add_method(exp::method_name(method), *span_log, cfg.nodes);
  obs::add_critical_path_flows(sinks->trace, *span_log,
                               sinks->span_doc.path(sinks->span_doc.method_count() - 1), pid);
  obs::MethodReport mr;
  mr.name = exp::method_name(method);
  mr.timeline = recorder;
  mr.analytics = obs::analyze_execution(raw, cfg.nodes);
  mr.makespan = out.makespan;
  mr.local_fraction = out.local_fraction;
  mr.spans = span_log;
  mr.node_count = cfg.nodes;
  sinks->report.add_method(std::move(mr));
  obs::add_timeline_counters(sinks->trace, *recorder, pid);
  if (fault_log) fault_log->add_instants(sinks->trace, pid);
  return out;
}

bool write_ok(const obs::IoStatus& st) {
  if (!st.ok) std::fprintf(stderr, "error: %s\n", st.message.c_str());
  return st.ok;
}

// ----------------------------------------------------------------- layout

/// exp::Streams: seeded so placement is identical across methods.
struct Streams {
  Rng placement, assign, exec, faults;
  explicit Streams(std::uint64_t seed)
      : placement(seed * 2654435761ULL + 1),
        assign(seed * 2654435761ULL + 2),
        exec(seed * 2654435761ULL + 3),
        faults(seed * 2654435761ULL + 4) {}
};

struct Layout {
  dfs::NameNode nn;
  std::vector<runtime::Task> tasks;
  core::ProcessPlacement placement;
};

/// The layout calls of one method, as the scenario's exp:: body makes them.
Layout build_layout(const Scenario& sc, Rng& placement_rng) {
  const auto& cfg = sc.cfg;
  Layout l{dfs::NameNode(dfs::Topology::single_rack(cfg.nodes), cfg.replication,
                         cfg.chunk_size),
           {},
           {}};
  auto policy = dfs::make_placement(cfg.placement);
  if (sc.kind == "multi") {
    l.tasks = workload::make_multi_input_workload(l.nn, sc.tasks, *policy, placement_rng);
    l.placement = core::one_process_per_node(l.nn, cfg.nodes * cfg.processes_per_node);
  } else if (sc.kind == "iterative") {
    l.tasks = workload::make_single_data_workload(l.nn, sc.tasks, *policy, placement_rng,
                                                  sc.compute);
    l.placement = core::one_process_per_node(l.nn);
  } else if (sc.kind == "dynamic") {
    workload::GenomicsSpec spec;
    spec.mean_compute_time = sc.compute;
    spec.partition_count = sc.tasks;
    l.tasks = workload::make_genomics_workload(l.nn, *policy, placement_rng, spec);
    l.placement = core::one_process_per_node(l.nn, cfg.nodes * cfg.processes_per_node);
  } else {
    throw std::invalid_argument("unknown scenario '" + sc.kind + "'");
  }
  return l;
}

// ------------------------------------------------------------------- run

int cmd_run(const Scenario& sc, std::uint32_t layout_reps) {
  std::unique_ptr<CliSinks> sinks;
  MethodOutput outs[2];
  const auto t0 = Clock::now();
  if (!sc.sinks_dir.empty()) sinks = std::make_unique<CliSinks>();
  for (int i = 0; i < 2; ++i) {
    try {
      outs[i] = from_run_output(run_method(sc, kMethods[i], sinks.get()));
    } catch (const std::exception& e) {
      outs[i].error = e.what();
    }
  }
  bool sinks_ok = true;
  if (sinks) {
    for (const SinkWriter& w : kSinks) sinks_ok &= write_ok(w.write(sink_path(sc, w.name), *sinks));
  }
  sinks.reset();
  const double run_s = seconds_since(t0);
  // Peak RSS of this process so far: the run's own, since every run gets a
  // fresh process and nothing before the run allocates.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::map<std::string, SinkFile> sink_files;
  if (!sc.sinks_dir.empty()) sinks_ok &= check_and_remove_sinks(sc, sink_files);

  std::vector<double> setup;
  for (std::uint32_t rep = 0; rep < layout_reps && outs[0].ok && outs[1].ok; ++rep) {
    const auto t1 = Clock::now();
    for (int i = 0; i < 2; ++i) {
      Streams streams(sc.cfg.seed);
      const Layout l = build_layout(sc, streams.placement);
      (void)l;
    }
    setup.push_back(seconds_since(t1));
  }

  JsonOut j;
  j.open('{');
  j.key("run_s"), j.num(run_s);
  j.key("peak_rss_mb"), j.num(peak_rss_mb);
  j.key("setup_s"), j.open('[');
  for (double s : setup) j.num(s);
  j.close(']');
  j.key("sinks_ok"), j.boolean(sinks_ok);
  write_sinks(j, sink_files);
  j.key("methods"), j.open('{');
  for (int i = 0; i < 2; ++i) j.key(exp::method_name(kMethods[i])), write_method(j, outs[i]);
  j.close('}');
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// ----------------------------------------------------------------- trace

/// Wall-clock spans around layer calls. Spans nest (a re-plan runs inside
/// an execution); a span's self time is its duration minus its children's,
/// so the self times of all spans sum to the top-level spans' durations.
/// "check" spans hold the benchmark's own audits and are excluded from the
/// traced wall time.
class Tracer {
 public:
  template <class F>
  decltype(auto) span(const std::string& name, F&& f) {
    stack_.push_back({name, Clock::now()});
    struct Close {
      Tracer& t;
      ~Close() { t.close(); }
    } close{*this};
    return f();
  }

  double wall() const { return seconds_since(start_) - self("check"); }
  double self(const std::string& name) const {
    const auto it = self_.find(name);
    return it == self_.end() ? 0.0 : it->second;
  }
  const std::map<std::string, double>& selves() const { return self_; }

 private:
  void close() {
    const double dur = seconds_since(stack_.back().second);
    self_[stack_.back().first] += dur;
    stack_.pop_back();
    if (!stack_.empty()) self_[stack_.back().first] -= dur;
  }

  Clock::time_point start_ = Clock::now();
  std::vector<std::pair<std::string, Clock::time_point>> stack_;
  std::map<std::string, double> self_;
};

/// Layer counters of the traced run.
struct Counters {
  std::map<std::string, double> v;
  void add(const std::string& k, double x) { v[k] += x; }
  void max(const std::string& k, double x) { v[k] = std::max(v[k], x); }
};

std::vector<runtime::TaskId> executed_ids(const runtime::ExecutionResult& exec) {
  std::vector<runtime::TaskId> ids;
  ids.reserve(exec.task_spans.size());
  for (const auto& s : exec.task_spans) ids.push_back(s.task);
  return ids;
}

struct TraceRun {
  Tracer tracer;
  Counters counters;
  std::vector<std::string> failed_checks;
  CliSinks* sinks = nullptr;

  void audit(const char* what, const core::AuditReport& report) {
    if (!report.ok()) failed_checks.push_back(std::string(what) + ": " + report.to_string());
  }
};

/// Count the simulator and executor work of one finished execution.
void count_execution(TraceRun& tr, exp::Method method, const runtime::ExecutionResult& exec) {
  std::uint64_t remote = 0;
  for (const auto& r : exec.trace.records())
    if (!r.local) ++remote;
  const auto reads = static_cast<double>(exec.trace.size());
  tr.counters.add("sim.reads", reads);
  tr.counters.add("sim.remote_reads", static_cast<double>(remote));
  if (method == exp::Method::kOpass) {
    tr.counters.add("sim.opass_reads", reads);
  }
  tr.counters.add("sim.read_failures", exec.read_failures);
  tr.counters.add("runtime.execute_calls", 1);
  for (std::size_t p = 0; p < exec.process_finish_time.size(); ++p) {
    double stall = exec.makespan - exec.process_finish_time[p];
    if (p < exec.barrier_stall.size()) stall += exec.barrier_stall[p];
    tr.counters.add("runtime.barrier_stall_s", stall);
  }
}

void count_layout(TraceRun& tr, const dfs::NameNode& nn) {
  double replicas = 0;
  for (dfs::ChunkId c = 0; c < nn.chunk_count(); ++c)
    replicas += static_cast<double>(nn.locations(c).size());
  tr.counters.max("dfs.chunks", nn.chunk_count());
  tr.counters.max("dfs.replicas", replicas);
}

void count_cluster(TraceRun& tr, const sim::Cluster& cluster) {
  const auto& s = cluster.simulator();
  tr.counters.add("sim.rate_recomputes", static_cast<double>(s.rate_recomputes()));
  tr.counters.add("sim.relevel_touched_flows",
                  static_cast<double>(s.rate_recompute_touched_flows()));
  for (std::uint32_t n = 0; n < cluster.node_count(); ++n)
    tr.counters.max("sim.disk_peak_load_max", cluster.disk_peak_load(n));
}

core::PlanResult traced_plan(TraceRun& tr, const Scenario& sc, core::PlannerKind kind,
                             const Layout& l, const std::vector<runtime::Task>& tasks,
                             Rng& rng) {
  core::PlanOptions options;
  options.planner = kind;
  options.algorithm = sc.cfg.flow_algorithm;
  options.threads = sc.cfg.threads;
  auto result = tr.tracer.span("opass.plan", [&] {
    return core::plan({&l.nn, &tasks, &l.placement, &rng}, options);
  });
  tr.counters.add("opass.plan_calls", 1);
  tr.counters.add("opass.tasks_planned", static_cast<double>(tasks.size()));
  tr.counters.add("opass.reassignments", result.reassignments);
  tr.counters.add("opass.randomly_filled", result.randomly_filled);
  return result;
}

/// Per-method observation state (the CLI's run_method locals).
struct MethodObs {
  runtime::ExecutionResult raw;
  obs::TimelineRecorder* recorder = nullptr;
  obs::SpanLog* span_log = nullptr;
  std::unique_ptr<obs::FaultEventLog> fault_log;
};

/// A span around one observation hook. The body runs only when the sinks
/// are on; with them off the span still measures the hook, which is what an
/// off sink costs.
template <class F>
void sink(TraceRun& tr, const char* name, F&& f) {
  tr.tracer.span(name, [&] {
    if (tr.sinks != nullptr) f(*tr.sinks);
  });
}

MethodObs open_observation(TraceRun& tr) {
  MethodObs mo;
  sink(tr, "obs.timeline", [&](CliSinks& s) {
    obs::TimelineRecorder::Options topt;
    topt.interval = s.sample_interval;
    mo.recorder = s.timelines.emplace_back(std::make_unique<obs::TimelineRecorder>(topt)).get();
  });
  sink(tr, "obs.spans", [&](CliSinks& s) {
    mo.span_log = s.span_logs.emplace_back(std::make_unique<obs::SpanLog>()).get();
  });
  sink(tr, "obs.trace",
       [&](CliSinks&) { mo.fault_log = std::make_unique<obs::FaultEventLog>(mo.recorder); });
  return mo;
}

/// exp's observe_run + observe_spans, then the CLI's per-method sink calls.
void close_observation(TraceRun& tr, const Scenario& sc, exp::Method method, MethodObs& mo,
                       const runtime::ExecutionResult& exec, const sim::Cluster& cluster,
                       const std::vector<runtime::Task>& tasks, const MethodOutput& out,
                       const core::OpassDynamicSource* dyn) {
  const std::uint32_t nodes = sc.cfg.nodes;
  const std::string prefix = exp::method_name(method);
  const std::uint32_t pid = method == exp::Method::kBaseline ? 0 : 1;
  sink(tr, "obs.metrics", [&](CliSinks& s) {
    obs::collect_execution(s.registry, exec, nodes, prefix + ".executor");
    obs::collect_cluster(s.registry, cluster, prefix + ".cluster");
  });
  if (tr.sinks != nullptr) mo.raw = exec;  // exp::observe_run's copy for trace and report
  sink(tr, "obs.spans",
       [&](CliSinks&) { obs::append_execution_spans(*mo.span_log, exec, tasks, cluster); });
  if (dyn != nullptr)
    sink(tr, "obs.metrics",
         [&](CliSinks& s) { obs::collect_dynamic(s.registry, *dyn, "opass.dynamic"); });
  sink(tr, "obs.trace", [&](CliSinks& s) {
    s.trace.set_process_name(pid, prefix);
    s.trace.add_execution(mo.raw, pid);
  });
  sink(tr, "obs.critical_path",
       [&](CliSinks& s) { s.span_doc.add_method(prefix, *mo.span_log, nodes); });
  sink(tr, "obs.trace", [&](CliSinks& s) {
    obs::add_critical_path_flows(s.trace, *mo.span_log,
                                 s.span_doc.path(s.span_doc.method_count() - 1), pid);
  });
  sink(tr, "obs.report", [&](CliSinks& s) {
    obs::MethodReport mr;
    mr.name = prefix;
    mr.timeline = mo.recorder;
    mr.analytics = obs::analyze_execution(mo.raw, nodes);
    mr.makespan = out.makespan;
    mr.local_fraction = out.local_fraction;
    mr.spans = mo.span_log;
    mr.node_count = nodes;
    s.report.add_method(std::move(mr));
  });
  sink(tr, "obs.trace", [&](CliSinks& s) {
    obs::add_timeline_counters(s.trace, *mo.recorder, pid);
    if (mo.fault_log) mo.fault_log->add_instants(s.trace, pid);
  });
}

/// exp::reduce: the run's outputs from its (aggregated) execution.
exp::RunOutput reduce(const dfs::NameNode& nn, const runtime::ExecutionResult& exec,
                      double planned_local) {
  exp::RunOutput out;
  out.io = summarize(exec.trace.io_times());
  out.io_times = exec.trace.io_times_by_issue();
  for (Bytes b : exec.trace.bytes_served_per_node(nn.node_count()))
    out.served_mb.push_back(to_mib(b));
  out.local_fraction = exec.trace.local_fraction();
  out.makespan = exec.makespan;
  out.tasks_executed = exec.tasks_executed;
  out.planned_local_fraction = planned_local;
  return out;
}

/// exp's accumulate: fold one epoch's execution into the run aggregate.
void accumulate(runtime::ExecutionResult& agg, const runtime::ExecutionResult& step) {
  for (const auto& rec : step.trace.records()) agg.trace.add(rec);
  agg.task_spans.insert(agg.task_spans.end(), step.task_spans.begin(), step.task_spans.end());
  agg.read_breakdowns.insert(agg.read_breakdowns.end(), step.read_breakdowns.begin(),
                             step.read_breakdowns.end());
  if (agg.process_finish_time.size() < step.process_finish_time.size())
    agg.process_finish_time.resize(step.process_finish_time.size(), 0);
  for (std::size_t p = 0; p < step.process_finish_time.size(); ++p)
    agg.process_finish_time[p] =
        std::max(agg.process_finish_time[p], step.process_finish_time[p]);
  if (agg.barrier_stall.size() < step.barrier_stall.size())
    agg.barrier_stall.resize(step.barrier_stall.size(), 0);
  for (std::size_t p = 0; p < step.barrier_stall.size(); ++p)
    agg.barrier_stall[p] += step.barrier_stall[p];
  agg.makespan = std::max(agg.makespan, step.makespan);
  agg.tasks_executed += step.tasks_executed;
  agg.read_failures += step.read_failures;
}

/// multi / iterative: plan once, replay the static plan once per epoch
/// (exp::run_multi_data, exp::run_iterative). Every sink is off.
MethodOutput trace_static(TraceRun& tr, const Scenario& sc, exp::Method method) {
  Streams streams(sc.cfg.seed);
  const Layout l =
      tr.tracer.span("workload.build", [&] { return build_layout(sc, streams.placement); });
  count_layout(tr, l.nn);
  const bool single = sc.kind == "iterative";
  runtime::Assignment assignment;
  if (method == exp::Method::kBaseline) {
    assignment = runtime::rank_interval_assignment(static_cast<std::uint32_t>(l.tasks.size()),
                                                   static_cast<std::uint32_t>(l.placement.size()));
  } else {
    auto result = traced_plan(tr, sc,
                              single ? core::PlannerKind::kSingleData
                                     : core::PlannerKind::kMultiData,
                              l, l.tasks, streams.assign);
    tr.counters.add("opass.planned_local_frac", result.local_fraction());
    assignment = std::move(result.assignment);
  }
  tr.tracer.span("check", [&] {
    core::AuditOptions opts;
    opts.enforce_capacity = single;
    tr.audit("audit_plan", core::audit_plan(l.nn, l.tasks, assignment, l.placement, opts));
  });

  MethodObs mo = open_observation(tr);
  runtime::ExecutorConfig ec;
  ec.replica_choice = sc.cfg.replica_choice;
  if (!single) ec.process_count = static_cast<std::uint32_t>(l.placement.size());
  auto cluster = tr.tracer.span("runtime.execute", [&] {
    return std::make_unique<sim::Cluster>(sc.cfg.nodes, sc.cfg.cluster);
  });
  std::optional<obs::RunTimeline> timeline;
  tr.tracer.span("obs.timeline", [&] {
    timeline.emplace(mo.recorder, *cluster, static_cast<std::uint32_t>(l.placement.size()));
    ec.probe = timeline->executor_probe();
  });
  // The multi body reduces its one execution; the iterative body folds the
  // epochs into an aggregate and reports the sum of epoch times.
  runtime::ExecutionResult agg;
  double epoch_sum = 0;
  const std::uint32_t epochs = single ? sc.epochs : 1;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    const Seconds epoch_start = cluster->simulator().now();
    tr.tracer.span("obs.timeline", [&] {
      timeline->add_expected_bytes(runtime::total_task_bytes(l.nn, l.tasks));
    });
    auto exec = tr.tracer.span("runtime.execute", [&] {
      runtime::StaticAssignmentSource source(assignment);
      return runtime::execute(*cluster, l.nn, l.tasks, source, streams.exec, ec);
    });
    count_execution(tr, method, exec);
    tr.tracer.span("check", [&] {
      tr.audit("audit_completion",
               core::audit_completion(static_cast<std::uint32_t>(l.tasks.size()),
                                      executed_ids(exec)));
    });
    if (!single) {
      agg = std::move(exec);
      break;
    }
    epoch_sum += exec.makespan - epoch_start;
    accumulate(agg, exec);
  }
  tr.tracer.span("obs.timeline", [&] { timeline->finish(); });
  count_cluster(tr, *cluster);
  const double planned =
      core::evaluate_assignment(l.nn, l.tasks, assignment, l.placement).local_fraction();
  exp::RunOutput reduced = reduce(l.nn, agg, planned);
  if (single) {
    reduced.makespan = epoch_sum;
    reduced.tasks_executed = static_cast<std::uint32_t>(agg.trace.size());
  }
  const MethodOutput out = from_run_output(reduced);
  close_observation(tr, sc, method, mo, agg, *cluster, l.tasks, out, nullptr);
  return out;
}

/// dynamic: master-worker dispatch, fault plan armed, Opass re-plans on
/// membership changes (exp::run_dynamic).
MethodOutput trace_dynamic(TraceRun& tr, const Scenario& sc, exp::Method method) {
  Streams streams(sc.cfg.seed);
  Layout l =
      tr.tracer.span("workload.build", [&] { return build_layout(sc, streams.placement); });
  count_layout(tr, l.nn);

  MethodObs mo = open_observation(tr);
  runtime::ExecutorConfig ec;
  ec.replica_choice = sc.cfg.replica_choice;
  ec.process_count = static_cast<std::uint32_t>(l.placement.size());
  ec.record_read_breakdown = mo.span_log != nullptr;
  std::optional<sim::Cluster> cluster;
  tr.tracer.span("runtime.execute", [&] { cluster.emplace(sc.cfg.nodes, sc.cfg.cluster); });
  std::optional<obs::RunTimeline> timeline;
  tr.tracer.span("obs.timeline", [&] {
    timeline.emplace(mo.recorder, *cluster, ec.process_count);
    ec.probe = timeline->executor_probe();
    timeline->add_expected_bytes(runtime::total_task_bytes(l.nn, l.tasks));
  });

  std::unique_ptr<sim::HeartbeatMonitor> monitor;
  std::unique_ptr<sim::FaultInjector> injector;
  const auto arm_faults = [&] {
    if (!sc.faults) return;
    monitor = std::make_unique<sim::HeartbeatMonitor>(*cluster, l.nn, /*namenode_host=*/0,
                                                      streams.faults, sc.cfg.heartbeat);
    injector = std::make_unique<sim::FaultInjector>(*cluster, l.nn, *monitor, *sc.faults);
    injector->set_probe(mo.fault_log.get());
    injector->arm();
    monitor->start(sc.faults->horizon);
  };

  runtime::ExecutionResult exec;
  std::optional<core::OpassDynamicSource> dyn;
  runtime::Assignment guideline;
  if (method == exp::Method::kBaseline) {
    exec = tr.tracer.span("runtime.execute", [&] {
      runtime::MasterWorkerSource source(sc.tasks, streams.assign, /*shuffle=*/true);
      arm_faults();
      return runtime::execute(*cluster, l.nn, l.tasks, source, streams.exec, ec);
    });
  } else {
    auto result = traced_plan(tr, sc, core::PlannerKind::kSingleData, l, l.tasks, streams.assign);
    tr.counters.add("opass.planned_local_frac", result.local_fraction());
    sink(tr, "obs.metrics",
         [&](CliSinks& s) { obs::collect_plan(s.registry, result, "opass.planner"); });
    guideline = std::move(result.assignment);
    tr.tracer.span("check", [&] {
      core::AuditOptions opts;
      opts.enforce_capacity = true;
      tr.audit("audit_plan", core::audit_plan(l.nn, l.tasks, guideline, l.placement, opts));
    });
    exec = tr.tracer.span("runtime.execute", [&] {
      dyn.emplace(guideline, l.nn, l.tasks, l.placement);
      arm_faults();
      if (injector) {
        injector->set_membership_callback(
            [&](Seconds /*now*/, sim::MembershipEvent ev, dfs::NodeId node) {
              if (ev == sim::MembershipEvent::kNodeDead) {
                dyn->on_node_dead(node);
                return;
              }
              if (ev != sim::MembershipEvent::kNodeJoined &&
                  ev != sim::MembershipEvent::kRecoveryComplete)
                return;
              const auto remaining = dyn->remaining_task_ids();
              if (remaining.empty()) return;
              std::vector<runtime::Task> sub;
              sub.reserve(remaining.size());
              for (runtime::TaskId id : remaining) {
                runtime::Task copy = l.tasks[id];
                copy.id = static_cast<runtime::TaskId>(sub.size());
                sub.push_back(std::move(copy));
              }
              auto sub_assignment =
                  traced_plan(tr, sc, core::PlannerKind::kSingleData, l, sub, streams.assign)
                      .assignment;
              runtime::Assignment mapped(sub_assignment.size());
              for (std::size_t p = 0; p < sub_assignment.size(); ++p)
                for (runtime::TaskId t : sub_assignment[p]) mapped[p].push_back(remaining[t]);
              dyn->adopt_guideline(mapped);
            });
      }
      return runtime::execute(*cluster, l.nn, l.tasks, *dyn, streams.exec, ec);
    });
  }
  tr.tracer.span("obs.timeline", [&] { timeline->finish(); });
  if (injector) {
    tr.counters.add("sim.fault_copies", injector->stats().replicas_copied);
    tr.counters.add("sim.lost_chunks", injector->stats().lost_chunks);
  }
  count_execution(tr, method, exec);
  count_cluster(tr, *cluster);
  tr.tracer.span("check", [&] {
    tr.audit("audit_completion", core::audit_completion(static_cast<std::uint32_t>(l.tasks.size()),
                                                        executed_ids(exec)));
  });
  const double planned =
      method == exp::Method::kOpass
          ? core::evaluate_assignment(l.nn, l.tasks, guideline, l.placement).local_fraction()
          : 0.0;
  const MethodOutput out = from_run_output(reduce(l.nn, exec, planned));
  close_observation(tr, sc, method, mo, exec, *cluster, l.tasks, out,
                    dyn ? &*dyn : nullptr);
  return out;
}

int cmd_trace(const Scenario& sc) {
  TraceRun tr;
  std::unique_ptr<CliSinks> sinks;
  if (!sc.sinks_dir.empty()) {
    sinks = std::make_unique<CliSinks>();
    tr.sinks = sinks.get();
  }
  MethodOutput outs[2];
  for (int i = 0; i < 2; ++i) {
    try {
      outs[i] = sc.kind == "dynamic" ? trace_dynamic(tr, sc, kMethods[i])
                                     : trace_static(tr, sc, kMethods[i]);
    } catch (const std::exception& e) {
      outs[i].error = e.what();
    }
  }
  // The CLI's write-out; with the sinks off only the hooks run.
  bool sinks_ok = true;
  for (const SinkWriter& w : kSinks) {
    sink(tr, (std::string("obs.") + w.name).c_str(),
         [&](CliSinks& s) { sinks_ok &= write_ok(w.write(sink_path(sc, w.name), s)); });
  }
  sinks.reset();
  const double wall = tr.tracer.wall();

  std::map<std::string, SinkFile> sink_files;
  if (!sc.sinks_dir.empty()) sinks_ok &= check_and_remove_sinks(sc, sink_files);

  JsonOut j;
  j.open('{');
  j.key("wall_s"), j.num(wall);
  j.key("spans"), j.open('{');
  for (const auto& [name, self] : tr.tracer.selves())
    if (name != "check") j.key(name), j.num(self);
  j.close('}');
  j.key("counters"), j.open('{');
  for (const auto& [name, v] : tr.counters.v) j.key(name), j.num(v);
  j.close('}');
  j.key("sinks_ok"), j.boolean(sinks_ok);
  write_sinks(j, sink_files);
  j.key("failed_checks"), j.open('[');
  for (const auto& f : tr.failed_checks) j.str(f);
  j.close(']');
  j.key("methods"), j.open('{');
  for (int i = 0; i < 2; ++i) j.key(exp::method_name(kMethods[i])), write_method(j, outs[i]);
  j.close('}');
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.add("scenario", "multi", "multi | iterative | dynamic")
      .add("nodes", "1024", "cluster size m")
      .add("tasks", "40960", "tasks (multi, dynamic) or chunks (iterative)")
      .add("replication", "3", "replication factor r")
      .add("seed", "42", "experiment seed")
      .add("epochs", "4", "iterative passes")
      .add("compute", "0.0", "mean compute seconds per task")
      .add("fault-plan", "", "JSON fault/churn scenario armed on each run's cluster")
      .add("sinks-dir", "", "write every observation sink into this directory")
      .add("layout-reps", "3", "run: times the layout calls are timed after the run")
      .add("help", "false", "show usage");
  if (!opts.parse(argc, argv) || opts.boolean("help") || opts.positional().size() != 1) {
    if (!opts.error().empty()) std::fprintf(stderr, "error: %s\n", opts.error().c_str());
    std::fputs(opts.usage("perfbench_e2e run|trace").c_str(), stderr);
    return 2;
  }
  Scenario sc;
  sc.kind = opts.str("scenario");
  const auto positive = [&](const char* name) {
    const long long v = opts.integer(name);
    if (v < 1 || v > (1LL << 24)) throw std::invalid_argument(std::string(name) + " out of range");
    return static_cast<std::uint32_t>(v);
  };
  std::uint32_t layout_reps = 0;
  try {
    sc.cfg.nodes = positive("nodes");
    sc.cfg.replication = positive("replication");
    sc.cfg.seed = static_cast<std::uint64_t>(opts.integer("seed"));
    sc.tasks = positive("tasks");
    sc.epochs = positive("epochs");
    layout_reps = positive("layout-reps");
    sc.compute = opts.real("compute");
    if (!opts.str("fault-plan").empty()) sc.faults = sim::load_fault_plan(opts.str("fault-plan"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  sc.sinks_dir = opts.str("sinks-dir");
  if (!sc.sinks_dir.empty() && sc.kind != "dynamic") {
    std::fprintf(stderr, "error: --sinks-dir is wired for --scenario=dynamic only\n");
    return 2;
  }
  const std::string& cmd = opts.positional()[0];
  if (cmd == "run") return cmd_run(sc, layout_reps);
  if (cmd == "trace") return cmd_trace(sc);
  std::fprintf(stderr, "unknown command '%s' (run | trace)\n", cmd.c_str());
  return 2;
}
