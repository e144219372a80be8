#include "obs/metrics_io.hpp"

#include <charconv>
#include <fstream>

#include "common/require.hpp"

namespace opass::obs {

namespace {

/// Minimal JSON string escaping; metric names are ASCII identifiers, but the
/// writer must not silently corrupt output if one ever is not.
void append_json_escaped(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

/// RFC 4180 field quoting: a name containing a comma, quote, CR or LF is
/// wrapped in double quotes with embedded quotes doubled. Metric names are
/// normally bare identifiers, but an adversarial label must not shift every
/// column after it (tests/obs/metrics_test.cpp pins this).
void append_csv_escaped(std::string& out, const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) {
    out += s;
    return;
  }
  out += '"';
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
}

bool included(const Metric& m, const ExportOptions& options) {
  return options.include_wall_clock || m.determinism == Determinism::kDeterministic;
}

}  // namespace

void append_double(std::string& out, double value) {
  if (value == 0) {  // both zeros: "%.9g" would print -0.0 as "-0"
    out += '0';
    return;
  }
  // 9 significant digits, sign, point and a 3-digit exponent fit in 24 bytes.
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, 9);
  out.append(buf, res.ptr);
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, res.ptr);
}

void append_i64(std::string& out, std::int64_t value) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, res.ptr);
}

std::string format_double(double value) {
  std::string s;
  append_double(s, value);
  return s;
}

std::string to_json(const MetricsRegistry& registry, ExportOptions options) {
  std::string out = "{\n  \"schema\": 1,\n  \"metrics\": [";
  bool first = true;
  for (const Metric& m : registry.metrics()) {
    if (!included(m, options)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    append_json_escaped(out, m.name);
    out += "\", \"kind\": \"";
    out += metric_kind_name(m.kind);
    out += "\"";
    if (m.determinism == Determinism::kWallClock) out += ", \"wall_clock\": true";
    switch (m.kind) {
      case MetricKind::kCounter:
        out += ", \"value\": ";
        append_u64(out, m.counter);
        break;
      case MetricKind::kGauge:
        out += ", \"value\": ";
        append_double(out, m.gauge);
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = m.histogram;
        out += ", \"count\": ";
        append_u64(out, h.count);
        out += ", \"sum\": ";
        append_double(out, h.sum);
        out += ", \"min\": ";
        append_double(out, h.min);
        out += ", \"max\": ";
        append_double(out, h.max);
        out += ", \"buckets\": [";
        for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
          if (i) out += ", ";
          out += "{\"le\": ";
          append_double(out, h.upper_bounds[i]);
          out += ", \"count\": ";
          append_u64(out, h.buckets[i]);
          out += '}';
        }
        out += "], \"overflow\": ";
        append_u64(out, h.overflow());
        break;
      }
    }
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string to_csv(const MetricsRegistry& registry, ExportOptions options) {
  std::string out = "name,kind,value\n";
  const auto row = [&out](const std::string& name, const char* kind, auto append_value,
                          auto value) {
    append_csv_escaped(out, name);
    out += ',';
    out += kind;
    out += ',';
    append_value(out, value);
    out += '\n';
  };
  for (const Metric& m : registry.metrics()) {
    if (!included(m, options)) continue;
    switch (m.kind) {
      case MetricKind::kCounter:
        row(m.name, "counter", append_u64, m.counter);
        break;
      case MetricKind::kGauge:
        row(m.name, "gauge", append_double, m.gauge);
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = m.histogram;
        row(m.name + ".count", "histogram", append_u64, h.count);
        row(m.name + ".sum", "histogram", append_double, h.sum);
        row(m.name + ".min", "histogram", append_double, h.min);
        row(m.name + ".max", "histogram", append_double, h.max);
        for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
          std::string name = m.name + ".le_";
          append_double(name, h.upper_bounds[i]);
          row(name, "histogram", append_u64, h.buckets[i]);
        }
        row(m.name + ".overflow", "histogram", append_u64, h.overflow());
        break;
      }
    }
  }
  return out;
}

IoStatus write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return {false, "cannot open '" + path + "' for writing"};
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) return {false, "short write to '" + path + "'"};
  return {};
}

IoStatus write_metrics(const MetricsRegistry& registry, const std::string& path,
                       ExportOptions options) {
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  return write_file(path, csv ? to_csv(registry, options) : to_json(registry, options));
}

}  // namespace opass::obs
