// Deterministic virtual-time sampler: fixed-interval time series driven by
// the simulator clock.
//
// The end-state aggregates of obs/collect.hpp answer "how imbalanced was the
// run"; the paper's Section III analysis needs "how did the imbalance
// *evolve*" — which nodes served how fast at which point of the run, where
// the queue depth collapsed to a straggler tail. TimelineRecorder captures
// that: named series sampled at fixed virtual-time boundaries, updated from
// instrumentation probes on the measured subsystems.
//
// Sampling model. Virtual time is partitioned into intervals of `interval`
// seconds; sample k is stamped at boundary t_k = k * interval. Callers feed
// state transitions through record_level()/record_rate(); every record first
// emits all boundaries up to the event time (levels repeat their current
// value, rate accumulators convert to per-second averages and reset), then
// applies the update. An event landing *exactly* on a boundary is therefore
// excluded from that boundary's sample and charged to the next interval —
// the convention tests/obs/timeline_test.cpp pins. finish(end) flushes the
// trailing boundaries; when `end` falls strictly inside an interval the
// remainder is emitted as one partial sample scaled by its true duration
// (partial_duration()). An `end` landing exactly on a boundary produces no
// partial sample; instead the final boundary is restamped with the end state
// (rates fold the trailing accumulation in, levels take their final value),
// so run-final events are never dropped.
//
// Determinism & cost. Samples are pure functions of the (deterministic)
// event sequence — no wall clock anywhere — so a seeded run reproduces every
// series byte-identically. Each series stores change points, not samples: a
// tick adds a point {tick, value} only when its sample's bit pattern differs
// from the previous tick's (bit-exact, so -0.0 and NaN payloads survive),
// and series_values() expands the points back into one sample per tick.
// Most series are flat most of the time (a node's in-flight count, an idle
// node's serve rate), so memory is O(change points), not O(series x ticks).
// `capacity` still bounds it: only the newest `capacity` ticks are retained
// (older ones count in dropped_ticks()), and once a series holds 2 x
// capacity points, those that ended before the retained window are pruned,
// keeping the one still in force at its start (stored_points()).
//
// Naming. Every series name must follow the `timeline.<subsystem>.<metric>`
// taxonomy (lowercase [a-z0-9_] segments, at least three); registration
// enforces it (OPASS_REQUIRE) and tools/opass_lint.py's timeline-metric-name
// rule checks the literals statically.
//
// The analytics pass over finished series lives in obs/analytics.hpp; the
// HTML/JSON renderers in obs/report.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "opass/service.hpp"
#include "runtime/executor.hpp"
#include "sim/cluster.hpp"

namespace opass::obs {

/// How a series turns state transitions into samples.
enum class SeriesKind {
  kLevel,  ///< piecewise-constant value; sampled as-is at each boundary
  kRate,   ///< per-interval accumulation, emitted as amount per second
};

/// Canonical lowercase name ("level", "rate").
const char* series_kind_name(SeriesKind kind);

/// True iff `name` follows the `timeline.<subsystem>.<metric>` taxonomy:
/// at least three dot-separated segments of [a-z0-9_]+ (first = "timeline").
bool valid_timeline_series_name(const std::string& name);

/// Fixed-interval virtual-time sampler (see file comment for the model).
class TimelineRecorder {
 public:
  using SeriesId = std::uint32_t;

  struct Options {
    Seconds interval = 0.5;        ///< sampling period in virtual seconds
    std::size_t capacity = 8192;   ///< max retained ticks per series
  };

  TimelineRecorder();  ///< default Options
  explicit TimelineRecorder(Options options);

  /// Register a piecewise-constant series starting at `initial`. Names must
  /// pass valid_timeline_series_name() and be unique.
  SeriesId add_level_series(const std::string& name, double initial = 0);

  /// Register a per-interval accumulation series (emitted as amount/second).
  SeriesId add_rate_series(const std::string& name);

  /// Set a level series to `value` as of virtual time `now` (>= last event).
  void record_level(SeriesId id, Seconds now, double value);

  /// Add `delta` to a level series as of `now`.
  void record_delta(SeriesId id, Seconds now, double delta);

  /// Accumulate `amount` into a rate series' current interval as of `now`.
  void record_rate(SeriesId id, Seconds now, double amount);

  /// Emit every boundary <= `now` (idempotent; record_* call it themselves).
  void advance_to(Seconds now);

  /// Flush the run end: emits boundaries <= `end`, then one partial sample
  /// for the open remainder when `end` is strictly inside an interval.
  /// Recording past finish() is an error; finish() twice is an error.
  void finish(Seconds end);

  Seconds interval() const { return interval_; }
  bool finished() const { return finished_; }
  Seconds end_time() const { return end_time_; }

  /// Duration of the trailing partial sample; 0 when the run ended exactly
  /// on a boundary (or finish() has not run).
  Seconds partial_duration() const { return partial_duration_; }

  std::size_t series_count() const { return series_.size(); }
  const std::string& series_name(SeriesId id) const;
  SeriesKind series_kind(SeriesId id) const;

  /// Samples of one series in tick order, oldest retained tick first,
  /// including the trailing partial sample (if any). Expands the stored
  /// change points — export-path only.
  std::vector<double> series_values(SeriesId id) const;

  /// Change points one series holds right now: at most 2 x capacity, and
  /// one for a series that never changed.
  std::size_t stored_points(SeriesId id) const;

  /// Boundary samples emitted so far (identical across series; the partial
  /// sample is not counted).
  std::uint64_t tick_count() const { return next_tick_; }

  /// Oldest tick still retained (> 0 once more than `capacity` ticks ran).
  std::uint64_t first_retained_tick() const;

  /// Ticks that fell out of the retained window, summed over the run.
  std::uint64_t dropped_ticks() const;

 private:
  /// The series samples `value` from `tick` until the next point's tick.
  struct Point {
    std::uint64_t tick;
    double value;
  };

  struct Series {
    std::string name;
    SeriesKind kind = SeriesKind::kLevel;
    double level = 0;              // current value (kLevel)
    double accum = 0;              // current interval's accumulation (kRate)
    double partial = 0;            // trailing partial sample, valid when
                                   // partial_duration_ > 0
    std::vector<Point> points;     // change points, ascending tick
  };

  void emit_tick(Seconds duration);
  void push_point(Series& s, std::uint64_t tick, double value) const;
  Series& checked(SeriesId id);

  Seconds interval_ = 0.5;
  std::size_t capacity_ = 8192;
  std::vector<Series> series_;
  std::uint64_t next_tick_ = 0;    // next boundary index to emit
  bool finished_ = false;
  Seconds end_time_ = 0;
  Seconds partial_duration_ = 0;
};

// --- subsystem probes -------------------------------------------------------
//
// The measured subsystems stay metric-blind (DESIGN.md §8): sim::Cluster and
// runtime's executor expose tiny abstract probe interfaces, and the adapters
// below translate probe callbacks into timeline series. exp::ExperimentConfig
// wires them per run via RunTimeline.

/// Cluster-side adapter: per-node serve rate and in-flight reads, plus
/// cluster-wide serve rate, in-flight, read-slot and bytes-remaining series.
/// Per-node series cover the nodes at construction; a node that joins later
/// (a fault plan's join) counts in the cluster-wide series only.
class ClusterTimelineProbe final : public sim::ClusterProbe {
 public:
  ClusterTimelineProbe(TimelineRecorder& recorder, const sim::Cluster& cluster);

  /// Grow the `timeline.cluster.bytes_remaining` level by the bytes the run
  /// is about to read (call before the reads are issued).
  void add_expected_bytes(Seconds now, Bytes bytes);

  void on_read_issued(Seconds now, dfs::NodeId server, Bytes bytes) override;
  void on_read_finished(Seconds now, dfs::NodeId server, Bytes bytes,
                        bool completed) override;

 private:
  TimelineRecorder& recorder_;
  const sim::Cluster& cluster_;
  std::vector<TimelineRecorder::SeriesId> node_rate_, node_inflight_;
  TimelineRecorder::SeriesId total_rate_, total_inflight_, read_slots_,
      bytes_remaining_;
  std::uint32_t inflight_total_ = 0;
  double remaining_ = 0;
};

/// Executor-side adapter: per-process operation depth (in-flight reads +
/// compute) and the cluster-wide queue depth, stamped on every transition.
class ExecutorTimelineProbe final : public runtime::ExecutorProbe {
 public:
  ExecutorTimelineProbe(TimelineRecorder& recorder, std::uint32_t process_count);

  void on_process_depth(Seconds now, runtime::ProcessId process,
                        std::uint32_t depth) override;

 private:
  TimelineRecorder& recorder_;
  std::vector<TimelineRecorder::SeriesId> process_depth_;
  TimelineRecorder::SeriesId queue_depth_;
  std::vector<std::uint32_t> depth_;
  std::uint32_t total_depth_ = 0;
};

/// Planning-service adapter: queue depth, batch shape, planned/local task
/// rates, and per-tenant cumulative locally-assigned bytes. The recorder
/// requires every series before the first sample, so the tenant id space
/// must be declared up front: tenant ids must be dense in [0, tenant_count).
class ServiceTimelineProbe final : public core::ServiceProbe {
 public:
  ServiceTimelineProbe(TimelineRecorder& recorder, std::uint32_t tenant_count);

  void on_job_queued(Seconds now, const core::JobStatus& job,
                     std::uint32_t queue_depth) override;
  void on_job_cancelled(Seconds now, const core::JobStatus& job,
                        std::uint32_t queue_depth) override;
  void on_batch_planned(const core::BatchReport& report) override;

 private:
  TimelineRecorder& recorder_;
  TimelineRecorder::SeriesId queue_depth_, batch_jobs_, batch_tasks_,
      planned_rate_, local_rate_;
  std::vector<TimelineRecorder::SeriesId> tenant_bytes_;
  std::vector<double> tenant_level_;
};

/// One-stop wiring for a run: attaches a ClusterTimelineProbe to the cluster
/// and owns an ExecutorTimelineProbe for the executor config. All methods are
/// no-ops when `recorder` is null, so call sites stay branch-free. Detaches
/// the cluster probe on destruction.
class RunTimeline {
 public:
  RunTimeline(TimelineRecorder* recorder, sim::Cluster& cluster,
              std::uint32_t process_count);
  ~RunTimeline();

  RunTimeline(const RunTimeline&) = delete;
  RunTimeline& operator=(const RunTimeline&) = delete;

  /// Probe pointer for ExecutorConfig::probe (null when disabled).
  runtime::ExecutorProbe* executor_probe();

  /// Forwarded to ClusterTimelineProbe::add_expected_bytes.
  void add_expected_bytes(Bytes bytes);

  /// Flush the recorder at the cluster's current virtual time.
  void finish();

 private:
  TimelineRecorder* recorder_;
  sim::Cluster& cluster_;
  // Engaged only when recorder_ != nullptr.
  std::unique_ptr<ClusterTimelineProbe> cluster_probe_;
  std::unique_ptr<ExecutorTimelineProbe> executor_probe_;
};

}  // namespace opass::obs
