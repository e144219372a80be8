#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "common/require.hpp"
#include "obs/metrics_io.hpp"

namespace opass::obs {

namespace {

constexpr double kMicrosPerSecond = 1e6;

/// Upper bounds of one rendered event beyond its name, category and args,
/// of one process's two metadata events beyond its name, and of one
/// thread_sort_index event: the fixed text plus every number at its widest.
constexpr std::size_t kMaxEventBytes = 192;
constexpr std::size_t kMaxProcessBytes = 256;
constexpr std::size_t kMaxTrackBytes = 160;

}  // namespace

void ChromeTraceBuilder::set_process_name(std::uint32_t pid, const std::string& name) {
  for (auto& entry : process_names_) {
    if (entry.first == pid) {
      entry.second = name;
      return;
    }
  }
  process_names_.emplace_back(pid, name);
}

void ChromeTraceBuilder::add_execution(const runtime::ExecutionResult& result,
                                       std::uint32_t pid) {
  for (const sim::ReadRecord& r : result.trace.records()) {
    OPASS_REQUIRE(r.end_time >= r.issue_time, "read record with negative duration");
    Event e;
    e.ts_us = r.issue_time * kMicrosPerSecond;
    e.dur_us = r.io_time() * kMicrosPerSecond;
    e.pid = pid;
    e.tid = r.process;
    e.name = "read chunk ";
    append_u64(e.name, r.chunk);
    e.cat = "read";
    e.args_json = "{\"chunk\": ";
    append_u64(e.args_json, r.chunk);
    e.args_json += ", \"bytes\": ";
    append_u64(e.args_json, r.bytes);
    e.args_json += ", \"server\": ";
    append_u64(e.args_json, r.serving_node);
    e.args_json += r.local ? ", \"local\": true}" : ", \"local\": false}";
    events_.push_back(std::move(e));
  }
  for (const runtime::TaskSpan& s : result.task_spans) {
    OPASS_REQUIRE(s.end >= s.start, "task span with negative duration");
    Event e;
    e.ts_us = s.start * kMicrosPerSecond;
    e.dur_us = (s.end - s.start) * kMicrosPerSecond;
    e.pid = pid;
    e.tid = s.process;
    e.name = "task ";
    append_u64(e.name, s.task);
    e.cat = "task";
    events_.push_back(std::move(e));
  }
}

void ChromeTraceBuilder::add_counter(std::uint32_t pid, const std::string& name,
                                     double ts_us, double value) {
  OPASS_REQUIRE(ts_us >= 0, "counter sample before the epoch");
  Event e;
  e.ts_us = ts_us;
  e.pid = pid;
  e.ph = 'C';
  e.name = name;
  e.cat = "counter";
  e.args_json = "{\"value\": ";
  append_double(e.args_json, value);
  e.args_json += '}';
  events_.push_back(std::move(e));
}

void ChromeTraceBuilder::add_instant(std::uint32_t pid, const std::string& name,
                                     double ts_us, const char* category) {
  OPASS_REQUIRE(ts_us >= 0, "instant event before the epoch");
  Event e;
  e.ts_us = ts_us;
  e.pid = pid;
  e.ph = 'i';
  e.name = name;
  e.cat = category;
  events_.push_back(std::move(e));
}

void ChromeTraceBuilder::add_flow_step(std::uint32_t pid, std::uint32_t tid,
                                       double ts_us, char ph, std::uint64_t flow_id) {
  OPASS_REQUIRE(ph == 's' || ph == 'f', "flow event phase must be 's' or 'f'");
  OPASS_REQUIRE(ts_us >= 0, "flow event before the epoch");
  Event e;
  e.ts_us = ts_us;
  e.pid = pid;
  e.tid = tid;
  e.ph = ph;
  e.name = "critical_path";
  e.cat = "critical_path";
  e.flow_id = flow_id;
  events_.push_back(std::move(e));
}

std::string ChromeTraceBuilder::json() const {
  std::vector<const Event*> order;
  order.reserve(events_.size());
  for (const Event& e : events_) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(), [](const Event* a, const Event* b) {
    return std::tie(a->ts_us, a->pid, a->tid, a->name) <
           std::tie(b->ts_us, b->pid, b->tid, b->name);
  });

  std::vector<std::pair<std::uint32_t, std::uint32_t>> tracks;
  for (const Event& e : events_)
    if (e.ph == 'X') tracks.emplace_back(e.pid, e.tid);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());

  // Reserve an upper bound of the document (tens of MB at 1024 nodes), so it
  // is written into one allocation: growing it by doubling would copy it and
  // briefly hold both buffers, and the untouched tail of the bound is never
  // paged in.
  std::size_t bound = 64 + tracks.size() * kMaxTrackBytes;
  for (const auto& entry : process_names_) bound += kMaxProcessBytes + entry.second.size();
  for (const Event& e : events_)
    bound += kMaxEventBytes + e.name.size() + std::strlen(e.cat) + e.args_json.size();
  std::string out;
  out.reserve(bound);
  out += "{\"traceEvents\": [";
  bool first = true;
  // Opens one event line; the caller appends the event object after it.
  const auto next_event = [&out, &first] {
    out += first ? "\n  " : ",\n  ";
    first = false;
  };
  // Metadata block, sorted by pid: a name pins the group label, the
  // sort_index events pin numeric group/track order (the viewer's default is
  // lexicographic, which misplaces rank 10 before rank 2).
  std::vector<std::pair<std::uint32_t, std::string>> names = process_names_;
  std::sort(names.begin(), names.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [pid, name] : names) {
    next_event();
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
    append_u64(out, pid);
    out += ", \"tid\": 0, \"args\": {\"name\": \"";
    out += name;
    out += "\"}}";
    next_event();
    out += "{\"name\": \"process_sort_index\", \"ph\": \"M\", \"pid\": ";
    append_u64(out, pid);
    out += ", \"tid\": 0, \"args\": {\"sort_index\": ";
    append_u64(out, pid);
    out += "}}";
  }
  for (const auto& [pid, tid] : tracks) {
    next_event();
    out += "{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": ";
    append_u64(out, pid);
    out += ", \"tid\": ";
    append_u64(out, tid);
    out += ", \"args\": {\"sort_index\": ";
    append_u64(out, tid);
    out += "}}";
  }
  for (const Event* e : order) {
    next_event();
    out += "{\"name\": \"";
    out += e->name;
    out += "\", \"cat\": \"";
    out += e->cat;
    out += '"';
    if (e->ph == 'X') {
      out += ", \"ph\": \"X\", \"ts\": ";
      append_double(out, e->ts_us);
      out += ", \"dur\": ";
      append_double(out, e->dur_us);
    } else if (e->ph == 'i') {
      out += ", \"ph\": \"i\", \"s\": \"g\", \"ts\": ";
      append_double(out, e->ts_us);
    } else if (e->ph == 's' || e->ph == 'f') {
      out += e->ph == 's' ? ", \"ph\": \"s\"" : ", \"ph\": \"f\", \"bp\": \"e\"";
      out += ", \"id\": ";
      append_u64(out, e->flow_id);
      out += ", \"ts\": ";
      append_double(out, e->ts_us);
    } else {
      out += ", \"ph\": \"C\", \"ts\": ";
      append_double(out, e->ts_us);
    }
    out += ", \"pid\": ";
    append_u64(out, e->pid);
    out += ", \"tid\": ";
    append_u64(out, e->tid);
    if (!e->args_json.empty()) {
      out += ", \"args\": ";
      out += e->args_json;
    }
    out += '}';
  }
  out += first ? "], " : "\n], ";
  out += "\"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string to_chrome_trace_json(const runtime::ExecutionResult& result) {
  ChromeTraceBuilder builder;
  builder.add_execution(result, /*pid=*/0);
  return builder.json();
}

}  // namespace opass::obs
