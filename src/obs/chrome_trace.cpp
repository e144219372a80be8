#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <charconv>

#include "common/require.hpp"
#include "obs/metrics_io.hpp"

namespace opass::obs {

namespace {

constexpr double kMicrosPerSecond = 1e6;

constexpr std::string_view kReadPrefix = "read chunk ";
constexpr std::string_view kTaskPrefix = "task ";
constexpr std::string_view kCriticalPath = "critical_path";

/// Upper bounds of one rendered event beyond an interned name and category
/// (read args and the fixed names and categories included), of one
/// process's two metadata events beyond its name, and of one
/// thread_sort_index event: the fixed text plus every number at its widest.
constexpr std::size_t kMaxEventBytes = 320;
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
  const auto& records = result.trace.records();
  events_.reserve(events_.size() + records.size() + result.task_spans.size());
  for (const sim::ReadRecord& r : records) {
    OPASS_REQUIRE(r.end_time >= r.issue_time, "read record with negative duration");
    Event e;
    e.ts_us = r.issue_time * kMicrosPerSecond;
    e.value = r.io_time() * kMicrosPerSecond;
    e.id = r.chunk;
    e.bytes = r.bytes;
    e.pid = pid;
    e.tid = r.process;
    e.server = r.serving_node;
    e.kind = Kind::kRead;
    e.local = r.local;
    events_.push_back(e);
  }
  for (const runtime::TaskSpan& s : result.task_spans) {
    OPASS_REQUIRE(s.end >= s.start, "task span with negative duration");
    Event e;
    e.ts_us = s.start * kMicrosPerSecond;
    e.value = (s.end - s.start) * kMicrosPerSecond;
    e.id = s.task;
    e.pid = pid;
    e.tid = s.process;
    e.kind = Kind::kTask;
    events_.push_back(e);
  }
}

void ChromeTraceBuilder::add_counter(std::uint32_t pid, const std::string& name,
                                     double ts_us, double value) {
  OPASS_REQUIRE(ts_us >= 0, "counter sample before the epoch");
  Event e;
  e.ts_us = ts_us;
  e.value = value;
  e.pid = pid;
  e.name = intern(name);
  e.kind = Kind::kCounter;
  events_.push_back(e);
}

void ChromeTraceBuilder::add_instant(std::uint32_t pid, const std::string& name,
                                     double ts_us, const char* category) {
  OPASS_REQUIRE(ts_us >= 0, "instant event before the epoch");
  Event e;
  e.ts_us = ts_us;
  e.pid = pid;
  e.name = intern(name);
  e.cat = intern(category);
  e.kind = Kind::kInstant;
  events_.push_back(e);
}

void ChromeTraceBuilder::add_flow_step(std::uint32_t pid, std::uint32_t tid,
                                       double ts_us, char ph, std::uint64_t flow_id) {
  OPASS_REQUIRE(ph == 's' || ph == 'f', "flow event phase must be 's' or 'f'");
  OPASS_REQUIRE(ts_us >= 0, "flow event before the epoch");
  Event e;
  e.ts_us = ts_us;
  e.id = flow_id;
  e.pid = pid;
  e.tid = tid;
  e.kind = ph == 's' ? Kind::kFlowStart : Kind::kFlowEnd;
  events_.push_back(e);
}

std::uint32_t ChromeTraceBuilder::intern(std::string_view s) {
  const auto it = string_ids_.find(s);
  if (it != string_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(std::string(s), id);
  return id;
}

std::string_view ChromeTraceBuilder::name_of(const Event& e,
                                             std::array<char, 32>& buf) const {
  const auto numbered = [&buf](std::string_view prefix, std::uint64_t n) {
    std::copy(prefix.begin(), prefix.end(), buf.begin());
    char* end = std::to_chars(buf.data() + prefix.size(), buf.data() + buf.size(), n).ptr;
    return std::string_view(buf.data(), static_cast<std::size_t>(end - buf.data()));
  };
  switch (e.kind) {
    case Kind::kRead: return numbered(kReadPrefix, e.id);
    case Kind::kTask: return numbered(kTaskPrefix, e.id);
    case Kind::kFlowStart:
    case Kind::kFlowEnd: return kCriticalPath;
    case Kind::kCounter:
    case Kind::kInstant: break;
  }
  return strings_[e.name];
}

std::string ChromeTraceBuilder::json() const {
  // Stored order is add order, so the stable sort keeps add order among
  // events equal in (ts, pid, tid, rendered name). Names are rendered only
  // when the numeric keys tie: "read chunk 10" sorts before "read chunk 9".
  std::vector<std::uint32_t> order(events_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](std::uint32_t ia, std::uint32_t ib) {
    const Event& a = events_[ia];
    const Event& b = events_[ib];
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    std::array<char, 32> buf_a, buf_b;
    return name_of(a, buf_a) < name_of(b, buf_b);
  });

  std::vector<std::pair<std::uint32_t, std::uint32_t>> tracks;
  for (const Event& e : events_)
    if (e.kind == Kind::kRead || e.kind == Kind::kTask) tracks.emplace_back(e.pid, e.tid);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());

  // Reserve an upper bound of the document (tens of MB at 1024 nodes), so it
  // is written into one allocation: growing it by doubling would copy it and
  // briefly hold both buffers, and the untouched tail of the bound is never
  // paged in.
  std::size_t bound = 64 + tracks.size() * kMaxTrackBytes;
  for (const auto& entry : process_names_) bound += kMaxProcessBytes + entry.second.size();
  for (const Event& e : events_) {
    bound += kMaxEventBytes;
    if (e.kind == Kind::kCounter) bound += strings_[e.name].size();
    if (e.kind == Kind::kInstant) bound += strings_[e.name].size() + strings_[e.cat].size();
  }
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
  std::array<char, 32> buf;
  for (std::uint32_t i : order) {
    const Event& e = events_[i];
    next_event();
    out += "{\"name\": \"";
    out += name_of(e, buf);
    out += "\", \"cat\": \"";
    switch (e.kind) {
      case Kind::kRead:
        out += "read\", \"ph\": \"X\", \"ts\": ";
        break;
      case Kind::kTask:
        out += "task\", \"ph\": \"X\", \"ts\": ";
        break;
      case Kind::kCounter:
        out += "counter\", \"ph\": \"C\", \"ts\": ";
        break;
      case Kind::kInstant:
        out += strings_[e.cat];
        out += "\", \"ph\": \"i\", \"s\": \"g\", \"ts\": ";
        break;
      case Kind::kFlowStart:
      case Kind::kFlowEnd:
        out += e.kind == Kind::kFlowStart ? "critical_path\", \"ph\": \"s\""
                                          : "critical_path\", \"ph\": \"f\", \"bp\": \"e\"";
        out += ", \"id\": ";
        append_u64(out, e.id);
        out += ", \"ts\": ";
        break;
    }
    append_double(out, e.ts_us);
    if (e.kind == Kind::kRead || e.kind == Kind::kTask) {
      out += ", \"dur\": ";
      append_double(out, e.value);
    }
    out += ", \"pid\": ";
    append_u64(out, e.pid);
    out += ", \"tid\": ";
    append_u64(out, e.tid);
    if (e.kind == Kind::kRead) {
      out += ", \"args\": {\"chunk\": ";
      append_u64(out, e.id);
      out += ", \"bytes\": ";
      append_u64(out, e.bytes);
      out += ", \"server\": ";
      append_u64(out, e.server);
      out += e.local ? ", \"local\": true}" : ", \"local\": false}";
    } else if (e.kind == Kind::kCounter) {
      out += ", \"args\": {\"value\": ";
      append_double(out, e.value);
      out += '}';
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
