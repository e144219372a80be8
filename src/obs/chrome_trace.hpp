// Chrome trace-event exporter: turn a recorded execution into a JSON file
// that chrome://tracing and Perfetto (ui.perfetto.dev) open directly.
//
// Mapping. Each executor process becomes a track (tid = process rank, one
// pid per execution added to the builder — so `--method=both` runs render as
// two side-by-side process groups). Every sim::ReadRecord becomes a complete
// ("X") event in category "read" spanning issue_time..end_time with the
// chunk, byte count, serving node and locality in its args; every
// runtime::TaskSpan becomes an "X" event in category "task" spanning
// pull..compute-done. Cluster-wide timeline series additionally export as
// counter ("C") tracks (obs::add_timeline_counters). Virtual seconds map to
// trace microseconds (1 s = 1e6 µs), the unit the trace-event spec requires.
//
// Determinism: metadata events are emitted sorted by (pid, tid), duration
// and counter events by (ts, pid, tid, name), all with the fixed number
// format of obs/metrics_io.hpp — so a seeded run exports a byte-identical
// trace, the same contract as the metric sinks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/executor.hpp"

namespace opass::obs {

/// Accumulates executions and renders one trace-event JSON document.
class ChromeTraceBuilder {
 public:
  /// Name the process group `pid` (emitted as an "M" process_name metadata
  /// event, shown as the group label in the viewer). Repeated calls for the
  /// same pid overwrite the previous name — one metadata event per pid.
  void set_process_name(std::uint32_t pid, const std::string& name);

  /// Add every read and task span of `result` under process group `pid`.
  /// Call once per execution; use distinct pids to compare methods in one
  /// trace.
  void add_execution(const runtime::ExecutionResult& result, std::uint32_t pid = 0);

  /// Append one counter ("C") sample: counter `name` had `value` at `ts_us`
  /// trace microseconds. Consecutive samples of the same (pid, name) render
  /// as a step chart in the viewer.
  void add_counter(std::uint32_t pid, const std::string& name, double ts_us,
                   double value);

  /// Append one global instant ("i", scope "g") event — a vertical marker
  /// across the whole trace. Used for failure-model transitions (crash,
  /// detection, recovery-complete) so fault timing lines up visually with
  /// the read/task spans it perturbs.
  void add_instant(std::uint32_t pid, const std::string& name, double ts_us,
                   const char* category = "fault");

  /// Append one flow event: `ph` is 's' (flow start, stamped at the source
  /// span's end) or 'f' (flow finish, binding point "e", stamped at the
  /// destination span's start); events with the same `flow_id` render as one
  /// arrow in the viewer. Used by obs::add_critical_path_flows to draw the
  /// critical path's cross-process hops over the task tracks.
  void add_flow_step(std::uint32_t pid, std::uint32_t tid, double ts_us, char ph,
                     std::uint64_t flow_id);

  /// Number of duration and counter events added so far (metadata not
  /// counted).
  std::size_t event_count() const { return events_.size(); }

  /// Render the document: {"traceEvents": [...], "displayTimeUnit": "ms"}.
  /// Metadata events first — process_name / process_sort_index per named
  /// pid and thread_sort_index per (pid, tid) track, sorted by (pid, tid) so
  /// the viewer orders groups and tracks numerically — then duration and
  /// counter events sorted by timestamp.
  std::string json() const;

 private:
  /// What a stored event renders as; reads and tasks are both "X" events.
  enum class Kind : std::uint8_t { kRead, kTask, kCounter, kInstant, kFlowStart, kFlowEnd };

  /// One stored event: a fixed-size record, no per-event heap. Read and task
  /// names and args are rendered from the numeric fields by json(); counter
  /// and instant names and instant categories are interned in `strings_`.
  struct Event {
    double ts_us = 0;      ///< issue time in trace microseconds
    double value = 0;      ///< "X": duration in trace µs (>= 0); "C": the sample
    std::uint64_t id = 0;  ///< read: chunk; task: task id; flow: binding id
    Bytes bytes = 0;       ///< read payload
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::uint32_t server = 0;  ///< read: serving node
    std::uint32_t name = 0;    ///< counter / instant: index into strings_
    std::uint32_t cat = 0;     ///< instant: index into strings_
    Kind kind = Kind::kRead;
    bool local = false;        ///< read: served from the reader's node
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  /// Index of `s` in strings_, appending it on first sight.
  std::uint32_t intern(std::string_view s);
  /// The event's rendered name; reads and tasks format into `buf`.
  std::string_view name_of(const Event& e, std::array<char, 32>& buf) const;

  std::vector<Event> events_;
  std::vector<std::string> strings_;
  std::map<std::string, std::uint32_t, std::less<>> string_ids_;
  std::vector<std::pair<std::uint32_t, std::string>> process_names_;
};

/// One-shot convenience: export a single execution as pid 0.
std::string to_chrome_trace_json(const runtime::ExecutionResult& result);

}  // namespace opass::obs
