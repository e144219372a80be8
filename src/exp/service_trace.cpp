#include "exp/service_trace.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/require.hpp"
#include "dfs/topology.hpp"
#include "obs/collect.hpp"
#include "obs/metrics_io.hpp"
#include "runtime/task.hpp"
#include "workload/dataset.hpp"

namespace opass::exp {

std::vector<TraceJob> parse_service_trace(const std::string& text) {
  std::vector<TraceJob> jobs;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    TraceJob job;
    std::string trailing;
    if (!(fields >> job.arrival >> job.tenant >> job.weight >> job.task_count) ||
        (fields >> trailing)) {
      OPASS_REQUIRE(false, "trace line " + std::to_string(line_no) +
                               ": expected \"<arrival> <tenant> <weight> <task_count>\"");
    }
    OPASS_REQUIRE(job.arrival >= 0,
                  "trace line " + std::to_string(line_no) + ": arrival must be >= 0");
    OPASS_REQUIRE(job.weight > 0,
                  "trace line " + std::to_string(line_no) + ": weight must be > 0");
    jobs.push_back(job);
  }
  return jobs;
}

std::vector<TraceJob> load_service_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  OPASS_REQUIRE(in.good(), "cannot read trace file: " + path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return parse_service_trace(text);
}

namespace {

/// Deterministic one-line rendering of a job: stable field order, reals via
/// obs::append_double, assignment as p<process>=[ids] for non-empty
/// processes only.
void append_job(std::string& out, const core::JobStatus& job) {
  out += "job=";
  obs::append_u64(out, job.id);
  out += " tenant=";
  obs::append_u64(out, job.tenant);
  out += " arrival=";
  obs::append_double(out, job.arrival);
  out += " state=";
  out += core::job_state_name(job.state);
  if (job.state == core::JobState::kPlanned || job.state == core::JobState::kCompleted) {
    out += " batch=";
    obs::append_u64(out, job.batch);
    out += " planned_at=";
    obs::append_double(out, job.planned_at);
    out += " matched=";
    obs::append_u64(out, job.locally_matched);
    out += " filled=";
    obs::append_u64(out, job.randomly_filled);
    out += " local_bytes=";
    obs::append_u64(out, job.local_bytes);
    out += " total_bytes=";
    obs::append_u64(out, job.total_bytes);
    for (std::size_t p = 0; p < job.assignment.size(); ++p) {
      if (job.assignment[p].empty()) continue;
      out += " p";
      obs::append_u64(out, p);
      out += "=[";
      for (std::size_t i = 0; i < job.assignment[p].size(); ++i) {
        if (i > 0) out += ',';
        obs::append_u64(out, job.assignment[p][i]);
      }
      out += ']';
    }
  }
  out += '\n';
}

}  // namespace

ServiceTraceOutput replay_service_trace(const ServiceTraceConfig& cfg,
                                        const std::vector<TraceJob>& jobs) {
  OPASS_REQUIRE(!jobs.empty(), "service trace holds no jobs");
  std::uint64_t total_tasks = 0;
  core::TenantId max_tenant = 0;
  for (const TraceJob& job : jobs) {
    total_tasks += job.task_count;
    max_tenant = std::max(max_tenant, job.tenant);
  }
  OPASS_REQUIRE(total_tasks > 0, "service trace holds no tasks");

  // Same derived-stream convention as the experiment harness: dataset
  // placement draws from a seed-derived stream so the namespace layout is a
  // pure function of (seed, nodes, replication, placement policy).
  Rng placement_rng(cfg.seed * 2654435761ULL + 1);
  dfs::NameNode nn(dfs::Topology::single_rack(cfg.nodes), cfg.replication);
  auto policy = dfs::make_placement(cfg.placement);
  const dfs::FileId fid = workload::store_chunked_dataset(
      nn, static_cast<std::uint32_t>(total_tasks), *policy, placement_rng);
  const std::vector<runtime::Task> all_tasks = runtime::single_input_tasks(nn, {fid});
  const core::ProcessPlacement placement = core::one_process_per_node(nn, cfg.nodes);

  core::ServiceOptions options;
  options.algorithm = cfg.flow_algorithm;
  options.seed = cfg.seed;
  options.batch_window = cfg.batch_window;
  options.max_batch_jobs = cfg.max_batch_jobs;
  options.max_batch_tasks = cfg.max_batch_tasks;
  options.fair_share = cfg.fair_share;
  core::PlannerService service(nn, placement, options);

  std::unique_ptr<obs::ServiceTimelineProbe> probe;
  if (cfg.timeline != nullptr) {
    probe = std::make_unique<obs::ServiceTimelineProbe>(*cfg.timeline, max_tenant + 1);
    service.set_probe(probe.get());
  }

  std::size_t next_task = 0;
  for (const TraceJob& job : jobs) {
    core::JobRequest request;
    request.tenant = job.tenant;
    request.weight = job.weight;
    request.arrival = job.arrival;
    request.tasks.assign(all_tasks.begin() + static_cast<std::ptrdiff_t>(next_task),
                         all_tasks.begin() +
                             static_cast<std::ptrdiff_t>(next_task + job.task_count));
    next_task += job.task_count;
    (void)service.submit(std::move(request));
  }
  service.drain();
  if (cfg.timeline != nullptr) cfg.timeline->finish(service.now());
  if (cfg.metrics != nullptr) obs::collect_service(*cfg.metrics, service);

  ServiceTraceOutput out;
  out.counters = service.counters();
  Bytes local = 0;
  Bytes total = 0;
  std::string& rendered = out.rendered;
  rendered = "# service-trace replay: jobs=";
  obs::append_u64(rendered, service.job_count());
  rendered += " batches=";
  obs::append_u64(rendered, out.counters.batches);
  rendered += " tasks=";
  obs::append_u64(rendered, out.counters.tasks_planned);
  rendered += " nodes=";
  obs::append_u64(rendered, cfg.nodes);
  rendered += " seed=";
  obs::append_u64(rendered, cfg.seed);
  rendered += '\n';
  for (core::JobId id = 1; id <= service.job_count(); ++id) {
    const core::JobStatus& status = service.status(id);
    local += status.local_bytes;
    total += status.total_bytes;
    append_job(rendered, status);
    out.statuses.push_back(status);
  }
  out.local_byte_fraction =
      total ? static_cast<double>(local) / static_cast<double>(total) : 0.0;
  if (cfg.spans != nullptr) obs::append_service_spans(*cfg.spans, out.statuses);
  return out;
}

}  // namespace opass::exp
