#include "obs/report.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics_io.hpp"

namespace opass::obs {

namespace {

constexpr double kMicrosPerSecond = 1e6;
constexpr int kChartWidth = 640;
constexpr int kChartHeight = 160;

bool safe_label(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

/// Sample times of a finished recorder: boundary ticks at k * interval for
/// every retained tick, plus the trailing partial sample at end_time.
std::vector<double> sample_times(const TimelineRecorder& t) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(t.tick_count() - t.first_retained_tick()) + 1);
  for (std::uint64_t k = t.first_retained_tick(); k < t.tick_count(); ++k)
    times.push_back(static_cast<double>(k) * t.interval());
  if (t.partial_duration() > 0) times.push_back(t.end_time());
  return times;
}

/// Find a series id by exact name; returns false when the recorder has none
/// (e.g. a run shape that never wired the executor probe).
bool find_series(const TimelineRecorder& t, const std::string& name,
                 TimelineRecorder::SeriesId& out) {
  for (TimelineRecorder::SeriesId id = 0; id < t.series_count(); ++id) {
    if (t.series_name(id) == name) {
      out = id;
      return true;
    }
  }
  return false;
}

/// One inline SVG step chart of a single series.
void append_svg_chart(std::string& out, const std::string& chart_id, const char* title,
                      const TimelineRecorder& t, const std::string& series) {
  out += "<figure>\n<figcaption>";
  out += title;
  out += "</figcaption>\n";
  TimelineRecorder::SeriesId id = 0;
  if (!find_series(t, series, id)) {
    out += "<p class=\"missing\" id=\"";
    out += chart_id;
    out += "\">series not recorded</p>\n</figure>\n";
    return;
  }
  const std::vector<double> values = t.series_values(id);
  const std::vector<double> times = sample_times(t);
  OPASS_CHECK(values.size() == times.size(), "sample/time count mismatch");

  double vmax = 0;
  for (double v : values) vmax = std::max(vmax, v);
  const double tmax = times.empty() ? 0 : std::max(times.back(), t.interval());

  out += "<svg id=\"";
  out += chart_id;
  out += "\" viewBox=\"0 0 ";
  append_i64(out, kChartWidth);
  out += ' ';
  append_i64(out, kChartHeight);
  out += "\" preserveAspectRatio=\"none\">\n"
         "<polyline fill=\"none\" stroke=\"currentColor\" stroke-width=\"1.5\" "
         "points=\"";
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x = tmax > 0 ? times[i] / tmax * kChartWidth : 0;
    const double y = vmax > 0 ? kChartHeight - values[i] / vmax * kChartHeight
                              : kChartHeight;
    if (i > 0) out += ' ';
    append_double(out, x);
    out += ',';
    append_double(out, y);
  }
  out += "\"/>\n</svg>\n<p class=\"axis\">0 &ndash; ";
  append_double(out, tmax);
  out += " s, peak ";
  append_double(out, vmax);
  out += "</p>\n</figure>\n";
}

void append_imbalance_json(std::string& out, const ImbalanceStats& s) {
  out += "{\"count\": ";
  append_u64(out, s.count);
  out += ", \"mean\": ";
  append_double(out, s.mean);
  out += ", \"max\": ";
  append_double(out, s.max);
  out += ", \"degree_of_imbalance\": ";
  append_double(out, s.degree_of_imbalance);
  out += ", \"cv\": ";
  append_double(out, s.cv);
  out += ", \"gini\": ";
  append_double(out, s.gini);
  out += ", \"peak_over_mean\": ";
  append_double(out, s.peak_over_mean);
  out += '}';
}

void append_stragglers_json(std::string& out, const std::vector<Straggler>& list) {
  out += '[';
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Straggler& s = list[i];
    if (i > 0) out += ", ";
    out += "{\"id\": ";
    append_u64(out, s.id);
    out += ", \"finish\": ";
    append_double(out, s.finish);
    out += ", \"threshold\": ";
    append_double(out, s.threshold);
    out += ", \"chunks\": [";
    for (std::size_t c = 0; c < s.causal_chunks.size(); ++c) {
      if (c > 0) out += ", ";
      append_u64(out, s.causal_chunks[c]);
    }
    out += "]}";
  }
  out += ']';
}

void append_imbalance_rows(std::string& out, const char* label, const ImbalanceStats& s) {
  const std::pair<const char*, double> rows[] = {
      {" degree of imbalance", s.degree_of_imbalance},
      {" CV", s.cv},
      {" Gini", s.gini},
      {" peak / mean", s.peak_over_mean}};
  for (const auto& [name, value] : rows) {
    out += "<tr><td>";
    out += label;
    out += name;
    out += "</td><td>";
    append_double(out, value);
    out += "</td></tr>\n";
  }
}

void append_straggler_rows(std::string& out, const char* label,
                           const std::vector<Straggler>& list) {
  out += "<tr><td>";
  out += label;
  out += "</td><td>";
  append_u64(out, list.size());
  if (!list.empty()) {
    out += " (";
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out += ", ";
      out += '#';
      append_u64(out, list[i].id);
    }
    out += ")";
  }
  out += "</td></tr>\n";
}

}  // namespace

void ReportBuilder::add_method(MethodReport method) {
  OPASS_REQUIRE(safe_label(method.name),
                "method name must be [a-z0-9_]+: " + method.name);
  OPASS_REQUIRE(method.timeline != nullptr, "method report without a timeline");
  OPASS_REQUIRE(method.timeline->finished(),
                "finish() the recorder before building reports");
  for (const MethodReport& m : methods_)
    OPASS_REQUIRE(m.name != method.name, "duplicate method report: " + method.name);
  methods_.push_back(std::move(method));
}

std::string ReportBuilder::html() const {
  std::string out =
      "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
      "<title>opass run report</title>\n<style>\n"
      "body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }\n"
      "section { margin-bottom: 2.5rem; }\n"
      "figure { margin: 1rem 0; }\n"
      "figcaption { font-weight: 600; margin-bottom: 0.25rem; }\n"
      "svg { width: 100%; max-width: 640px; height: 160px; display: block;\n"
      "      border: 1px solid #ccc; background: #fafafa; color: #0b62a4; }\n"
      ".axis, .missing { color: #666; font-size: 0.85rem; margin: 0.25rem 0; }\n"
      "table { border-collapse: collapse; }\n"
      "td { border: 1px solid #ccc; padding: 0.25rem 0.75rem; }\n"
      "</style>\n</head>\n<body>\n<h1>opass run report</h1>\n";
  for (const MethodReport& m : methods_) {
    const TimelineRecorder& t = *m.timeline;
    out += "<section id=\"method-";
    out += m.name;
    out += "\">\n<h2>";
    out += m.name;
    out += "</h2>\n<table>\n<tr><td>makespan</td><td>";
    append_double(out, m.makespan);
    out += " s</td></tr>\n<tr><td>local read fraction</td><td>";
    append_double(out, m.local_fraction);
    out += "</td></tr>\n";
    append_imbalance_rows(out, "serve bytes", m.analytics.serve_bytes);
    append_imbalance_rows(out, "process finish", m.analytics.process_finish);
    append_straggler_rows(out, "straggler nodes", m.analytics.straggler_nodes);
    append_straggler_rows(out, "straggler processes", m.analytics.straggler_processes);
    if (t.dropped_ticks() > 0) {
      out += "<tr><td>dropped ticks (ring wrap)</td><td>";
      append_u64(out, t.dropped_ticks());
      out += "</td></tr>\n";
    }
    out += "</table>\n";
    if (m.spans != nullptr && !m.spans->empty()) {
      // Bottleneck attribution: where the (top-level) span time went, per
      // causal bucket and per blamed node — the DESIGN.md §13 breakdown.
      const AttributionTotals totals = attribute_spans(*m.spans, m.node_count);
      out += "<h3>bottleneck attribution</h3>\n<table>\n";
      for (std::size_t k = 0; k < kAttrKindCount; ++k) {
        if (totals.kind_ticks[k] == 0) continue;
        const double share = totals.total_ticks > 0
                                 ? static_cast<double>(totals.kind_ticks[k]) /
                                       static_cast<double>(totals.total_ticks)
                                 : 0.0;
        out += "<tr><td>";
        out += attr_kind_name(static_cast<AttrKind>(k));
        out += "</td><td>";
        append_double(out, static_cast<double>(totals.kind_ticks[k]) * 1e-9);
        out += " s</td><td>";
        append_double(out, 100.0 * share);
        out += "%</td></tr>\n";
      }
      out += "</table>\n";
      std::vector<std::size_t> nodes;
      for (std::size_t n = 0; n < totals.node_ticks.size(); ++n)
        if (totals.node_ticks[n] > 0) nodes.push_back(n);
      std::stable_sort(nodes.begin(), nodes.end(), [&](std::size_t a, std::size_t b) {
        return totals.node_ticks[a] > totals.node_ticks[b];
      });
      if (nodes.size() > 8) nodes.resize(8);
      if (!nodes.empty()) {
        out += "<h3>top blamed nodes</h3>\n<table>\n";
        for (std::size_t n : nodes) {
          out += "<tr><td>node ";
          append_u64(out, n);
          out += "</td><td>";
          append_double(out, static_cast<double>(totals.node_ticks[n]) * 1e-9);
          out += " s</td></tr>\n";
        }
        out += "</table>\n";
      }
    }
    append_svg_chart(out, "chart-" + m.name + "-serve-bytes", "cluster serve rate (bytes/s)",
                     t, "timeline.cluster.serve_bytes_per_s");
    append_svg_chart(out, "chart-" + m.name + "-queue-depth",
                     "executor queue depth (in-flight ops)", t,
                     "timeline.executor.queue_depth");
    append_svg_chart(out, "chart-" + m.name + "-bytes-remaining", "bytes remaining", t,
                     "timeline.cluster.bytes_remaining");
    out += "</section>\n";
  }
  out += "</body>\n</html>\n";
  return out;
}

std::string ReportBuilder::timeline_json() const {
  std::string out = "{\"schema\": 1, \"methods\": [";
  for (std::size_t mi = 0; mi < methods_.size(); ++mi) {
    const MethodReport& m = methods_[mi];
    const TimelineRecorder& t = *m.timeline;
    out += mi > 0 ? ",\n" : "\n";
    out += " {\"name\": \"";
    out += m.name;
    out += "\", \"interval\": ";
    append_double(out, t.interval());
    out += ", \"end_time\": ";
    append_double(out, t.end_time());
    out += ", \"partial_duration\": ";
    append_double(out, t.partial_duration());
    out += ", \"tick_count\": ";
    append_u64(out, t.tick_count());
    out += ", \"dropped_ticks\": ";
    append_u64(out, t.dropped_ticks());
    out += ", \"makespan\": ";
    append_double(out, m.makespan);
    out += ", \"local_fraction\": ";
    append_double(out, m.local_fraction);
    out += ",\n  \"analytics\": {\"serve_bytes\": ";
    append_imbalance_json(out, m.analytics.serve_bytes);
    out += ", \"process_finish\": ";
    append_imbalance_json(out, m.analytics.process_finish);
    out += ", \"node_finish_p90\": ";
    append_double(out, m.analytics.node_finish_p90);
    out += ", \"process_finish_p90\": ";
    append_double(out, m.analytics.process_finish_p90);
    out += ", \"straggler_nodes\": ";
    append_stragglers_json(out, m.analytics.straggler_nodes);
    out += ", \"straggler_processes\": ";
    append_stragglers_json(out, m.analytics.straggler_processes);
    out += "},\n  \"series\": [";
    for (TimelineRecorder::SeriesId id = 0; id < t.series_count(); ++id) {
      out += id > 0 ? ",\n   " : "\n   ";
      out += "{\"name\": \"";
      out += t.series_name(id);
      out += "\", \"kind\": \"";
      out += series_kind_name(t.series_kind(id));
      out += "\", \"values\": [";
      const std::vector<double> values = t.series_values(id);
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ", ";
        append_double(out, values[i]);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

void add_timeline_counters(ChromeTraceBuilder& trace, const TimelineRecorder& timeline,
                           std::uint32_t pid) {
  OPASS_REQUIRE(timeline.finished(), "finish() the recorder before exporting counters");
  for (TimelineRecorder::SeriesId id = 0; id < timeline.series_count(); ++id) {
    const std::string& name = timeline.series_name(id);
    // Cluster-wide series only: exactly three segments. Per-node/per-process
    // series have four and would swamp the viewer with counter tracks.
    if (std::count(name.begin(), name.end(), '.') != 2) continue;
    const std::vector<double> values = timeline.series_values(id);
    const std::vector<double> times = sample_times(timeline);
    for (std::size_t i = 0; i < values.size(); ++i)
      trace.add_counter(pid, name, times[i] * kMicrosPerSecond, values[i]);
  }
}

}  // namespace opass::obs
