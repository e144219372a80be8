// Metric sinks: JSON and CSV serialization of a MetricsRegistry.
//
// Determinism contract: the default export includes only metrics tagged
// Determinism::kDeterministic, iterates in registration order, and formats
// every number through one locale-independent formatter — so a seeded run
// writes byte-identical files on every execution and on every machine (the
// property the `cli_metrics_deterministic` ctest entry asserts). Wall-clock
// metrics appear only when ExportOptions::include_wall_clock is set, and
// such files are explicitly not byte-stable.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace opass::obs {

/// Outcome of a file write. Returned (not thrown) because a missing
/// directory or full disk on `--metrics-out` is an operator error, not a
/// programming error; callers must look at it, hence [[nodiscard]].
struct [[nodiscard]] IoStatus {
  bool ok = true;
  std::string message;  ///< empty on success, reason otherwise

  explicit operator bool() const { return ok; }
};

/// Serialization knobs (options-last on every entry point).
struct ExportOptions {
  /// Also emit Determinism::kWallClock metrics. Off by default so the
  /// output is byte-identical across runs of the same seed.
  bool include_wall_clock = false;
};

/// Serialize as a JSON document:
///   {"schema": 1, "metrics": [{"name": ..., "kind": ..., ...}, ...]}
/// Counters carry an integer "value", gauges a double "value", histograms
/// "count"/"sum"/"min"/"max" plus a "buckets" array of {"le", "count"} pairs
/// and an "overflow" count. Ends with a trailing newline.
std::string to_json(const MetricsRegistry& registry, ExportOptions options = {});

/// Serialize as CSV with header `name,kind,value`. Histograms flatten into
/// one row per component: `<name>.count`, `<name>.sum`, `<name>.min`,
/// `<name>.max`, `<name>.le_<bound>` per bucket and `<name>.overflow`.
/// Names containing commas, quotes or newlines are quoted per RFC 4180.
std::string to_csv(const MetricsRegistry& registry, ExportOptions options = {});

/// Write `content` to `path`, overwriting. Fails (with a message naming the
/// path) instead of aborting when the path is not writable.
IoStatus write_file(const std::string& path, const std::string& content);

/// Serialize and write in one step: CSV when `path` ends in ".csv", JSON
/// otherwise.
IoStatus write_metrics(const MetricsRegistry& registry, const std::string& path,
                       ExportOptions options = {});

/// The fixed number format shared by every deterministic sink. Each helper
/// appends in place: no temporary string per field and no locale lookup.
///
/// append_double writes std::to_chars general with precision 9 — by the
/// [charconv] specification byte-equal to printf "%.9g" in the "C" locale —
/// with "-0" normalized to "0"; NaN and infinities print as "nan", "-nan",
/// "inf" and "-inf". The integer helpers write plain decimal.
void append_double(std::string& out, double value);
void append_u64(std::string& out, std::uint64_t value);
void append_i64(std::string& out, std::int64_t value);

/// append_double into a fresh string, for a caller that needs one value on
/// its own.
std::string format_double(double value);

}  // namespace opass::obs
