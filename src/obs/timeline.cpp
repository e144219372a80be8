#include "obs/timeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/require.hpp"

namespace opass::obs {

namespace {

/// Boundary index of the last sample due at or before `now`:
/// floor(now / interval) with a relative epsilon so times that are
/// mathematically on a boundary but one ulp below it still count as on it.
std::uint64_t tick_floor(Seconds now, Seconds interval) {
  if (now <= 0) return 0;
  return static_cast<std::uint64_t>(std::floor(now / interval * (1.0 + 1e-12)));
}

/// Bit-pattern equality: tells -0.0 from 0.0 and keeps NaN payloads apart.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// First point stamped after `tick` in a list sorted by ascending tick.
template <typename Points>
auto first_after(Points& points, std::uint64_t tick) {
  return std::upper_bound(points.begin(), points.end(), tick,
                          [](std::uint64_t t, const auto& p) { return t < p.tick; });
}

bool lower_segment(const std::string& name, std::size_t begin, std::size_t end) {
  if (begin >= end) return false;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const char* series_kind_name(SeriesKind kind) {
  return kind == SeriesKind::kLevel ? "level" : "rate";
}

bool valid_timeline_series_name(const std::string& name) {
  constexpr const char kPrefix[] = "timeline.";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return false;
  std::size_t segments = 1;  // "timeline"
  std::size_t begin = kPrefixLen;
  while (true) {
    const std::size_t dot = name.find('.', begin);
    const std::size_t end = dot == std::string::npos ? name.size() : dot;
    if (!lower_segment(name, begin, end)) return false;
    ++segments;
    if (dot == std::string::npos) break;
    begin = dot + 1;
  }
  return segments >= 3;
}

TimelineRecorder::TimelineRecorder() : TimelineRecorder(Options{}) {}

TimelineRecorder::TimelineRecorder(Options options)
    : interval_(options.interval), capacity_(options.capacity) {
  OPASS_REQUIRE(interval_ > 0, "sampling interval must be positive");
  OPASS_REQUIRE(capacity_ > 0, "timeline capacity must be positive");
}

TimelineRecorder::SeriesId TimelineRecorder::add_level_series(const std::string& name,
                                                              double initial) {
  OPASS_REQUIRE(valid_timeline_series_name(name),
                "series name must follow the timeline.<subsystem>.<metric> taxonomy: " + name);
  for (const Series& s : series_)
    OPASS_REQUIRE(s.name != name, "duplicate timeline series: " + name);
  OPASS_REQUIRE(next_tick_ == 0 && !finished_,
                "register every series before the first sample");
  Series s;
  s.name = name;
  s.kind = SeriesKind::kLevel;
  s.level = initial;
  series_.push_back(std::move(s));
  return static_cast<SeriesId>(series_.size() - 1);
}

TimelineRecorder::SeriesId TimelineRecorder::add_rate_series(const std::string& name) {
  const SeriesId id = add_level_series(name, 0);
  series_[id].kind = SeriesKind::kRate;
  return id;
}

TimelineRecorder::Series& TimelineRecorder::checked(SeriesId id) {
  OPASS_REQUIRE(id < series_.size(), "unknown timeline series id");
  OPASS_REQUIRE(!finished_, "cannot record into a finished timeline");
  return series_[id];
}

void TimelineRecorder::record_level(SeriesId id, Seconds now, double value) {
  Series& s = checked(id);
  OPASS_REQUIRE(s.kind == SeriesKind::kLevel, "record_level on a rate series");
  advance_to(now);
  s.level = value;
}

void TimelineRecorder::record_delta(SeriesId id, Seconds now, double delta) {
  Series& s = checked(id);
  OPASS_REQUIRE(s.kind == SeriesKind::kLevel, "record_delta on a rate series");
  advance_to(now);
  s.level += delta;
}

void TimelineRecorder::record_rate(SeriesId id, Seconds now, double amount) {
  Series& s = checked(id);
  OPASS_REQUIRE(s.kind == SeriesKind::kRate, "record_rate on a level series");
  advance_to(now);
  s.accum += amount;
}

void TimelineRecorder::push_point(Series& s, std::uint64_t tick, double value) const {
  // Keep memory O(capacity): once the list holds twice the window, drop the
  // points that ended before the window [tick + 1 - capacity, tick] starts,
  // keeping the one in force at its start. The list then holds at most
  // `capacity` points, so the erase is amortized O(1) per point.
  if (s.points.size() / 2 >= capacity_) {
    const std::uint64_t first = tick + 1 - capacity_;
    s.points.erase(s.points.begin(), std::prev(first_after(s.points, first)));
  }
  s.points.push_back({tick, value});
}

void TimelineRecorder::emit_tick(Seconds duration) {
  for (Series& s : series_) {
    double sample = s.level;
    if (s.kind == SeriesKind::kRate) {
      sample = s.accum / duration;
      s.accum = 0;
    }
    if (s.points.empty() || !same_bits(s.points.back().value, sample))
      push_point(s, next_tick_, sample);
  }
  ++next_tick_;
}

void TimelineRecorder::advance_to(Seconds now) {
  OPASS_REQUIRE(!finished_, "cannot advance a finished timeline");
  const std::uint64_t last = tick_floor(now, interval_);
  while (next_tick_ <= last) emit_tick(interval_);
}

void TimelineRecorder::finish(Seconds end) {
  OPASS_REQUIRE(!finished_, "timeline already finished");
  advance_to(end);
  finished_ = true;
  end_time_ = end;
  // An end strictly inside an interval leaves an open remainder
  // [last_boundary, end); emit it as one partial sample scaled by its true
  // duration so trailing rate mass is never dropped.
  const Seconds covered = static_cast<double>(next_tick_ ? next_tick_ - 1 : 0) * interval_;
  const Seconds rest = end - covered;
  if (next_tick_ > 0 && rest > interval_ * 1e-9) {
    partial_duration_ = rest;
    for (Series& s : series_) {
      s.partial = s.kind == SeriesKind::kRate ? s.accum / rest : s.level;
      s.accum = 0;
    }
  } else if (next_tick_ > 0) {
    // The run ended exactly on a boundary. Events stamped at `end` were
    // charged to the next interval — which will never come — so restamp the
    // final boundary with the end state: rates fold the trailing
    // accumulation in, levels take their final value.
    const std::uint64_t last = next_tick_ - 1;
    for (Series& s : series_) {
      double value = s.points.back().value;  // in force at `last`
      if (s.kind == SeriesKind::kRate) {
        if (s.accum != 0) value += s.accum / interval_;
        s.accum = 0;
      } else {
        value = s.level;
      }
      if (same_bits(value, s.points.back().value)) continue;
      if (s.points.back().tick != last) {
        push_point(s, last, value);
      } else if (s.points.size() > 1 && same_bits(value, s.points[s.points.size() - 2].value)) {
        s.points.pop_back();  // the restamp undid the last tick's change
      } else {
        s.points.back().value = value;
      }
    }
  }
}

const std::string& TimelineRecorder::series_name(SeriesId id) const {
  OPASS_REQUIRE(id < series_.size(), "unknown timeline series id");
  return series_[id].name;
}

SeriesKind TimelineRecorder::series_kind(SeriesId id) const {
  OPASS_REQUIRE(id < series_.size(), "unknown timeline series id");
  return series_[id].kind;
}

std::uint64_t TimelineRecorder::first_retained_tick() const {
  return next_tick_ > capacity_ ? next_tick_ - capacity_ : 0;
}

std::uint64_t TimelineRecorder::dropped_ticks() const { return first_retained_tick(); }

std::vector<double> TimelineRecorder::series_values(SeriesId id) const {
  OPASS_REQUIRE(id < series_.size(), "unknown timeline series id");
  const Series& s = series_[id];
  const std::uint64_t first = first_retained_tick();
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(next_tick_ - first) + (partial_duration_ > 0 ? 1 : 0));
  if (next_tick_ > 0) {
    // Start from the point in force at `first`: the last one stamped at or
    // before it (pruning always keeps it).
    auto next = first_after(s.points, first);
    double value = std::prev(next)->value;
    for (std::uint64_t t = first; t < next_tick_; ++t) {
      if (next != s.points.end() && next->tick == t) value = (next++)->value;
      out.push_back(value);
    }
  }
  if (partial_duration_ > 0) out.push_back(s.partial);
  return out;
}

std::size_t TimelineRecorder::stored_points(SeriesId id) const {
  OPASS_REQUIRE(id < series_.size(), "unknown timeline series id");
  return series_[id].points.size();
}

// --- probes -----------------------------------------------------------------

ClusterTimelineProbe::ClusterTimelineProbe(TimelineRecorder& recorder,
                                           const sim::Cluster& cluster)
    : recorder_(recorder), cluster_(cluster) {
  const std::uint32_t m = cluster.node_count();
  node_rate_.reserve(m);
  node_inflight_.reserve(m);
  for (std::uint32_t n = 0; n < m; ++n) {
    const std::string node = "timeline.cluster.node." + std::to_string(n);
    node_rate_.push_back(recorder_.add_rate_series(node + ".serve_bytes_per_s"));
    node_inflight_.push_back(recorder_.add_level_series(node + ".inflight"));
  }
  total_rate_ = recorder_.add_rate_series("timeline.cluster.serve_bytes_per_s");
  total_inflight_ = recorder_.add_level_series("timeline.cluster.inflight");
  read_slots_ = recorder_.add_level_series("timeline.cluster.read_slots");
  bytes_remaining_ = recorder_.add_level_series("timeline.cluster.bytes_remaining");
}

void ClusterTimelineProbe::add_expected_bytes(Seconds now, Bytes bytes) {
  remaining_ += static_cast<double>(bytes);
  recorder_.record_level(bytes_remaining_, now, remaining_);
}

void ClusterTimelineProbe::on_read_issued(Seconds now, dfs::NodeId server, Bytes /*bytes*/) {
  ++inflight_total_;
  if (server < node_inflight_.size())
    recorder_.record_level(node_inflight_[server], now,
                           cluster_.inflight_per_node()[server]);
  recorder_.record_level(total_inflight_, now, inflight_total_);
  recorder_.record_level(read_slots_, now, cluster_.read_slot_count());
}

void ClusterTimelineProbe::on_read_finished(Seconds now, dfs::NodeId server, Bytes bytes,
                                            bool completed) {
  OPASS_CHECK(inflight_total_ > 0, "timeline in-flight underflow");
  --inflight_total_;
  const bool has_series = server < node_inflight_.size();
  if (has_series)
    recorder_.record_level(node_inflight_[server], now,
                           cluster_.inflight_per_node()[server]);
  recorder_.record_level(total_inflight_, now, inflight_total_);
  if (!completed) return;  // aborted reads retry; their bytes are still owed
  if (has_series)
    recorder_.record_rate(node_rate_[server], now, static_cast<double>(bytes));
  recorder_.record_rate(total_rate_, now, static_cast<double>(bytes));
  remaining_ -= static_cast<double>(bytes);
  recorder_.record_level(bytes_remaining_, now, remaining_);
}

ExecutorTimelineProbe::ExecutorTimelineProbe(TimelineRecorder& recorder,
                                             std::uint32_t process_count)
    : recorder_(recorder), depth_(process_count, 0) {
  process_depth_.reserve(process_count);
  for (std::uint32_t p = 0; p < process_count; ++p)
    process_depth_.push_back(recorder_.add_level_series(
        "timeline.executor.process." + std::to_string(p) + ".depth"));
  queue_depth_ = recorder_.add_level_series("timeline.executor.queue_depth");
}

void ExecutorTimelineProbe::on_process_depth(Seconds now, runtime::ProcessId process,
                                             std::uint32_t depth) {
  OPASS_REQUIRE(process < depth_.size(), "process rank out of probe range");
  total_depth_ += depth;
  OPASS_CHECK(total_depth_ >= depth_[process], "queue depth underflow");
  total_depth_ -= depth_[process];
  depth_[process] = depth;
  recorder_.record_level(process_depth_[process], now, depth);
  recorder_.record_level(queue_depth_, now, total_depth_);
}

ServiceTimelineProbe::ServiceTimelineProbe(TimelineRecorder& recorder,
                                           std::uint32_t tenant_count)
    : recorder_(recorder), tenant_level_(tenant_count, 0) {
  queue_depth_ = recorder_.add_level_series("timeline.service.queue_depth");
  batch_jobs_ = recorder_.add_level_series("timeline.service.batch_jobs");
  batch_tasks_ = recorder_.add_level_series("timeline.service.batch_tasks");
  planned_rate_ = recorder_.add_rate_series("timeline.service.planned_tasks_per_s");
  local_rate_ = recorder_.add_rate_series("timeline.service.local_tasks_per_s");
  tenant_bytes_.reserve(tenant_count);
  for (std::uint32_t i = 0; i < tenant_count; ++i)
    tenant_bytes_.push_back(recorder_.add_level_series(
        "timeline.service.tenant." + std::to_string(i) + ".local_bytes"));
}

void ServiceTimelineProbe::on_job_queued(Seconds now, const core::JobStatus& /*job*/,
                                         std::uint32_t queue_depth) {
  recorder_.record_level(queue_depth_, now, queue_depth);
}

void ServiceTimelineProbe::on_job_cancelled(Seconds now, const core::JobStatus& /*job*/,
                                            std::uint32_t queue_depth) {
  recorder_.record_level(queue_depth_, now, queue_depth);
}

void ServiceTimelineProbe::on_batch_planned(const core::BatchReport& report) {
  const Seconds now = report.planned_at;
  recorder_.record_level(queue_depth_, now, report.queue_depth_after);
  recorder_.record_level(batch_jobs_, now, report.jobs);
  recorder_.record_level(batch_tasks_, now, report.tasks);
  recorder_.record_rate(planned_rate_, now, report.tasks);
  recorder_.record_rate(local_rate_, now, report.locally_matched);
  for (const core::TenantBatchShare& share : report.tenants) {
    OPASS_REQUIRE(share.tenant < tenant_level_.size(),
                  "tenant id out of the probe's declared range");
    tenant_level_[share.tenant] += static_cast<double>(share.local_bytes);
    recorder_.record_level(tenant_bytes_[share.tenant], now,
                           tenant_level_[share.tenant]);
  }
}

// --- per-run wiring ---------------------------------------------------------

RunTimeline::RunTimeline(TimelineRecorder* recorder, sim::Cluster& cluster,
                         std::uint32_t process_count)
    : recorder_(recorder), cluster_(cluster) {
  if (recorder_ == nullptr) return;
  // Probe registration is idempotent per recorder: a recorder carries series
  // from at most one cluster/executor shape, so re-wiring the same recorder
  // (multi-step scenarios recreate RunTimeline only when they recreate the
  // cluster) would double-register names and trip the duplicate check.
  cluster_probe_ = std::make_unique<ClusterTimelineProbe>(*recorder_, cluster);
  executor_probe_ = std::make_unique<ExecutorTimelineProbe>(*recorder_, process_count);
  cluster_.set_probe(cluster_probe_.get());
}

RunTimeline::~RunTimeline() {
  if (cluster_probe_ != nullptr) cluster_.set_probe(nullptr);
}

runtime::ExecutorProbe* RunTimeline::executor_probe() { return executor_probe_.get(); }

void RunTimeline::add_expected_bytes(Bytes bytes) {
  if (cluster_probe_ != nullptr)
    cluster_probe_->add_expected_bytes(cluster_.simulator().now(), bytes);
}

void RunTimeline::finish() {
  if (recorder_ != nullptr) recorder_->finish(cluster_.simulator().now());
}

}  // namespace opass::obs
