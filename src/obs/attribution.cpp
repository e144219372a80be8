#include "obs/attribution.hpp"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "common/require.hpp"
#include "obs/metrics_io.hpp"

namespace opass::obs {

namespace {

/// Sentinel-aware id value: UINT32_MAX fields (no parent, no task, ...)
/// render as -1.
std::int64_t signed_id(std::uint32_t v) {
  return v == UINT32_MAX ? -1 : static_cast<std::int64_t>(v);
}

/// Upper bounds of one rendered span object (its name excluded), one
/// breakdown slice, and one method's header and attribution objects beyond
/// their per-node entries: the fixed text plus every number at its widest.
constexpr std::size_t kMaxSpanBytes = 320;
constexpr std::size_t kMaxSliceBytes = 128;
constexpr std::size_t kMaxMethodBytes = 1024;
constexpr std::size_t kMaxNodeEntryBytes = 40;

bool valid_method_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name)
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) return false;
  return true;
}

void append_attribution_json(std::string& out, const AttributionTotals& totals) {
  out += "{\"total_ticks\": ";
  append_i64(out, totals.total_ticks);
  out += ", \"kinds\": {";
  for (std::size_t k = 0; k < kAttrKindCount; ++k) {
    if (k) out += ", ";
    out += '"';
    out += attr_kind_name(static_cast<AttrKind>(k));
    out += "\": ";
    append_i64(out, totals.kind_ticks[k]);
  }
  out += "}, \"nodes\": {";
  bool first = true;
  for (std::size_t n = 0; n < totals.node_ticks.size(); ++n) {
    if (totals.node_ticks[n] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += '"';
    append_u64(out, n);
    out += "\": ";
    append_i64(out, totals.node_ticks[n]);
  }
  out += "}}";
}

}  // namespace

void AttributionTotals::add_slice(const AttrSlice& slice) {
  kind_ticks[static_cast<std::size_t>(slice.kind)] += slice.duration_ticks();
  if (slice.node != dfs::kInvalidNode && slice.node < node_ticks.size())
    node_ticks[slice.node] += slice.duration_ticks();
}

void AttributionTotals::add_span(const Span& span, std::span<const AttrSlice> breakdown) {
  total_ticks += span.duration_ticks();
  if (breakdown.empty()) {
    kind_ticks[static_cast<std::size_t>(AttrKind::kOther)] += span.duration_ticks();
    return;
  }
  for (const AttrSlice& s : breakdown) add_slice(s);
}

AttributionTotals attribute_spans(const SpanLog& log, std::uint32_t node_count) {
  AttributionTotals totals;
  totals.node_ticks.assign(node_count, 0);
  // Top-level spans only: a read span's slices already appear inside its
  // parent task's tiling, so counting children would double-charge.
  for (const Span& s : log.spans())
    if (s.parent == kNoSpan) totals.add_span(s, log.breakdown(s));
  return totals;
}

CriticalPath critical_path(const SpanLog& log, std::uint32_t node_count) {
  CriticalPath cp;
  cp.blame.node_ticks.assign(node_count, 0);
  const std::vector<Span>& spans = log.spans();

  // Per-process task-span chains in time order, plus each task span's
  // position in its chain.
  std::uint32_t max_process = 0;
  for (const Span& s : spans)
    if (s.kind == SpanKind::kTask) max_process = std::max(max_process, s.process);
  std::vector<std::vector<std::uint32_t>> chains(
      spans.empty() ? 0 : static_cast<std::size_t>(max_process) + 1);
  for (const Span& s : spans)
    if (s.kind == SpanKind::kTask) chains[s.process].push_back(s.id);
  for (auto& chain : chains)
    std::sort(chain.begin(), chain.end(), [&](std::uint32_t a, std::uint32_t b) {
      return std::tie(spans[a].start_ticks, spans[a].end_ticks, a) <
             std::tie(spans[b].start_ticks, spans[b].end_ticks, b);
    });
  std::vector<std::uint32_t> pos(spans.size(), 0);
  bool any = false;
  for (const auto& chain : chains)
    for (std::uint32_t i = 0; i < chain.size(); ++i) {
      pos[chain[i]] = i;
      any = true;
    }
  if (!any) return cp;

  // Task spans sorted by (end, process, id): the wave-blocker lookup — "who
  // finished exactly when this span started" — and its deterministic
  // tie-break fall out of one lower_bound.
  struct ByEnd {
    std::int64_t end;
    std::uint32_t process;
    std::uint32_t id;
  };
  std::vector<ByEnd> by_end;
  for (const auto& chain : chains)
    for (std::uint32_t id : chain) by_end.push_back({spans[id].end_ticks, spans[id].process, id});
  std::sort(by_end.begin(), by_end.end(), [](const ByEnd& a, const ByEnd& b) {
    return std::tie(a.end, a.process, a.id) < std::tie(b.end, b.process, b.id);
  });

  // Start at the last-finishing task span (ties: lowest process, lowest id).
  std::uint32_t cur = kNoSpan;
  for (const ByEnd& e : by_end)
    if (cur == kNoSpan || e.end > spans[cur].end_ticks) cur = e.id;
  for (const ByEnd& e : by_end)
    if (e.end == spans[cur].end_ticks) {
      cur = e.id;  // sorted ascending, so the first hit is the tie-winner
      break;
    }

  // Backward walk. `visited` guards against cycles through zero-duration
  // spans (end == start == another zero span's boundary).
  std::vector<char> visited(spans.size(), 0);
  std::vector<CriticalPath::Step> rev;
  while (true) {
    visited[cur] = 1;
    rev.push_back({cur, spans[cur].start_ticks, spans[cur].end_ticks});
    const Span& c = spans[cur];
    const std::int64_t start = c.start_ticks;
    const auto& chain = chains[c.process];
    const std::uint32_t prev =
        pos[cur] > 0 ? chain[pos[cur] - 1] : kNoSpan;
    // 1. Same process, chained exactly: the previous task released this one.
    if (prev != kNoSpan && !visited[prev] && spans[prev].end_ticks == start) {
      cur = prev;
      continue;
    }
    // 2. A task on any process finished exactly at our start: the BSP wave
    // blocker (release_wave runs synchronously from the last arriver).
    auto it = std::lower_bound(
        by_end.begin(), by_end.end(), start,
        [](const ByEnd& e, std::int64_t t) { return e.end < t; });
    std::uint32_t blocker = kNoSpan;
    for (; it != by_end.end() && it->end == start; ++it)
      if (!visited[it->id]) {
        blocker = it->id;
        break;
      }
    if (blocker != kNoSpan) {
      cur = blocker;
      continue;
    }
    // 3. Same process with a gap: cover it with a synthetic idle step so the
    // path stays gap-free (the gap is real wait — retry windows, admission).
    if (prev != kNoSpan && !visited[prev] && spans[prev].end_ticks < start) {
      rev.push_back({kNoSpan, spans[prev].end_ticks, start});
      cur = prev;
      continue;
    }
    break;  // 4. Nothing precedes us: the path's origin.
  }
  std::reverse(rev.begin(), rev.end());
  cp.steps = std::move(rev);

  for (const CriticalPath::Step& step : cp.steps) {
    if (step.span != kNoSpan) {
      cp.blame.add_span(spans[step.span], log.breakdown(spans[step.span]));
    } else {
      cp.blame.total_ticks += step.end_ticks - step.start_ticks;
      cp.blame.kind_ticks[static_cast<std::size_t>(AttrKind::kOther)] +=
          step.end_ticks - step.start_ticks;
    }
  }
  // The chain invariant the whole analysis rests on: steps tile the path.
  for (std::size_t i = 1; i < cp.steps.size(); ++i)
    OPASS_CHECK(cp.steps[i].start_ticks == cp.steps[i - 1].end_ticks,
                "critical-path steps must chain exactly");
  return cp;
}

void SpanDocBuilder::add_method(const std::string& name, const SpanLog& log,
                                std::uint32_t node_count) {
  OPASS_REQUIRE(valid_method_name(name), "method name must be [a-z0-9_]+");
  Method m;
  m.name = name;
  m.log = &log;
  m.node_count = node_count;
  m.totals = attribute_spans(log, node_count);
  m.path = critical_path(log, node_count);
  methods_.push_back(std::move(m));
}

const CriticalPath& SpanDocBuilder::path(std::size_t index) const {
  OPASS_REQUIRE(index < methods_.size(), "method index out of range");
  return methods_[index].path;
}

std::string SpanDocBuilder::spans_json() const {
  // Reserve an upper bound of the document (tens of MB at 1024 nodes), so it
  // is written into one allocation: growing it by doubling would copy it and
  // briefly hold both buffers, and the untouched tail of the bound is never
  // paged in.
  std::size_t bound = kMaxMethodBytes;
  for (const Method& m : methods_) {
    bound += kMaxMethodBytes + m.name.size() + m.totals.node_ticks.size() * kMaxNodeEntryBytes;
    for (const Span& s : m.log->spans())
      bound += kMaxSpanBytes + std::strlen(s.name) + s.slice_count * kMaxSliceBytes;
  }
  std::string out;
  out.reserve(bound);
  out += "{\"schema\": 1, \"ticks_per_second\": 1000000000, \"methods\": [";
  for (std::size_t mi = 0; mi < methods_.size(); ++mi) {
    const Method& m = methods_[mi];
    out += mi ? ",\n" : "\n";
    out += "{\"name\": \"";
    out += m.name;
    out += "\", \"makespan_ticks\": ";
    append_i64(out, m.log->max_end_ticks());
    out += ", \"span_count\": ";
    append_u64(out, m.log->size());
    out += ", \"attribution\": ";
    append_attribution_json(out, m.totals);
    out += ", \"spans\": [";
    const auto& spans = m.log->spans();
    for (std::size_t si = 0; si < spans.size(); ++si) {
      const Span& s = spans[si];
      out += si ? ",\n  {\"id\": " : "\n  {\"id\": ";
      append_u64(out, s.id);
      out += ", \"parent\": ";
      append_i64(out, signed_id(s.parent));
      out += ", \"kind\": \"";
      out += span_kind_name(s.kind);
      out += "\", \"name\": \"";
      out += s.name;
      out += "\", \"process\": ";
      append_u64(out, s.process);
      out += ", \"task\": ";
      append_i64(out, signed_id(s.task));
      out += ", \"node\": ";
      append_i64(out, signed_id(s.node));
      out += ", \"server\": ";
      append_i64(out, signed_id(s.server));
      out += ", \"chunk\": ";
      append_i64(out, signed_id(s.chunk));
      out += ", \"bytes\": ";
      append_u64(out, s.bytes);
      out += ", \"start_ticks\": ";
      append_i64(out, s.start_ticks);
      out += ", \"end_ticks\": ";
      append_i64(out, s.end_ticks);
      out += ", \"breakdown\": [";
      bool first_slice = true;
      for (const AttrSlice& b : m.log->breakdown(s)) {
        out += first_slice ? "{\"kind\": \"" : ", {\"kind\": \"";
        first_slice = false;
        out += attr_kind_name(b.kind);
        out += "\", \"node\": ";
        append_i64(out, signed_id(b.node));
        out += ", \"start_ticks\": ";
        append_i64(out, b.start_ticks);
        out += ", \"end_ticks\": ";
        append_i64(out, b.end_ticks);
        out += '}';
      }
      out += "]}";
    }
    out += "\n]}";
  }
  out += "\n]}\n";
  return out;
}

std::string SpanDocBuilder::critical_path_json() const {
  std::string out = "{\"schema\": 1, \"ticks_per_second\": 1000000000, \"methods\": [";
  for (std::size_t mi = 0; mi < methods_.size(); ++mi) {
    const Method& m = methods_[mi];
    const auto& spans = m.log->spans();
    out += mi ? ",\n" : "\n";
    out += "{\"name\": \"";
    out += m.name;
    out += "\", \"makespan_ticks\": ";
    append_i64(out, m.log->max_end_ticks());
    out += ", \"blame\": ";
    append_attribution_json(out, m.path.blame);
    out += ", \"steps\": [";
    for (std::size_t si = 0; si < m.path.steps.size(); ++si) {
      const CriticalPath::Step& step = m.path.steps[si];
      out += si ? ",\n  " : "\n  ";
      if (step.span == kNoSpan) {
        out += "{\"span\": -1, \"name\": \"idle\", \"process\": -1, \"task\": -1";
      } else {
        const Span& s = spans[step.span];
        out += "{\"span\": ";
        append_u64(out, step.span);
        out += ", \"name\": \"";
        out += s.name;
        out += "\", \"process\": ";
        append_u64(out, s.process);
        out += ", \"task\": ";
        append_i64(out, signed_id(s.task));
      }
      out += ", \"start_ticks\": ";
      append_i64(out, step.start_ticks);
      out += ", \"end_ticks\": ";
      append_i64(out, step.end_ticks);
      out += '}';
    }
    out += "\n]}";
  }
  out += "\n]}\n";
  return out;
}

std::string SpanDocBuilder::critical_path_text() const {
  std::string out;
  for (const Method& m : methods_) {
    const std::int64_t makespan = m.log->max_end_ticks();
    out += "== ";
    out += m.name;
    out += " ==\nmakespan: ";
    append_double(out, static_cast<double>(makespan) * 1e-9);
    out += " s (";
    append_i64(out, makespan);
    out += " ticks)\ncritical path: ";
    append_u64(out, m.path.steps.size());
    out += " steps covering ";
    append_double(out, static_cast<double>(m.path.blame.total_ticks) * 1e-9);
    out += " s\nblame:\n";
    // Buckets in descending tick order, ties by enum order; zeros omitted.
    std::vector<std::size_t> kinds;
    for (std::size_t k = 0; k < kAttrKindCount; ++k)
      if (m.path.blame.kind_ticks[k] > 0) kinds.push_back(k);
    std::stable_sort(kinds.begin(), kinds.end(), [&](std::size_t a, std::size_t b) {
      return m.path.blame.kind_ticks[a] > m.path.blame.kind_ticks[b];
    });
    for (std::size_t k : kinds) {
      const std::int64_t t = m.path.blame.kind_ticks[k];
      const double pct = m.path.blame.total_ticks > 0
                             ? 100.0 * static_cast<double>(t) /
                                   static_cast<double>(m.path.blame.total_ticks)
                             : 0.0;
      out += "  ";
      out += attr_kind_name(static_cast<AttrKind>(k));
      out += ' ';
      append_double(out, static_cast<double>(t) * 1e-9);
      out += " s (";
      append_double(out, pct);
      out += "%)\n";
    }
    std::vector<std::size_t> nodes;
    for (std::size_t n = 0; n < m.path.blame.node_ticks.size(); ++n)
      if (m.path.blame.node_ticks[n] > 0) nodes.push_back(n);
    std::stable_sort(nodes.begin(), nodes.end(), [&](std::size_t a, std::size_t b) {
      return m.path.blame.node_ticks[a] > m.path.blame.node_ticks[b];
    });
    if (nodes.size() > 8) nodes.resize(8);
    if (!nodes.empty()) {
      out += "blamed nodes:\n";
      for (std::size_t n : nodes) {
        out += "  node ";
        append_u64(out, n);
        out += ' ';
        append_double(out, static_cast<double>(m.path.blame.node_ticks[n]) * 1e-9);
        out += " s\n";
      }
    }
  }
  return out;
}

void add_critical_path_flows(ChromeTraceBuilder& trace, const SpanLog& log,
                             const CriticalPath& cp, std::uint32_t pid) {
  const std::vector<Span>& spans = log.spans();
  std::uint64_t flow_id = 0;
  std::uint32_t prev = kNoSpan;
  for (const CriticalPath::Step& step : cp.steps) {
    if (step.span == kNoSpan) continue;  // idle gaps stay within one track
    const Span& s = spans[step.span];
    if (prev != kNoSpan && spans[prev].process != s.process) {
      ++flow_id;
      trace.add_flow_step(pid, spans[prev].process,
                          static_cast<double>(spans[prev].end_ticks) * 1e-3, 's',
                          flow_id);
      trace.add_flow_step(pid, s.process, static_cast<double>(s.start_ticks) * 1e-3,
                          'f', flow_id);
    }
    prev = step.span;
  }
}

}  // namespace opass::obs
