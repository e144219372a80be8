#include "sim/trace.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"

namespace opass::sim {

namespace {

/// I/O times of `records` in stable ascending order of `key`. Sorting
/// contiguous (key, index) pairs gives the stable order exactly: ties on the
/// key fall back to the record index. Records already in key order (the
/// executor appends in completion order) skip the sort.
template <typename Key>
std::vector<double> io_times_ordered_by(const std::vector<ReadRecord>& records, Key key) {
  std::vector<double> out;
  out.reserve(records.size());
  bool ordered = true;
  for (std::size_t i = 1; i < records.size() && ordered; ++i)
    ordered = !(key(records[i]) < key(records[i - 1]));
  if (ordered) {
    for (const auto& r : records) out.push_back(r.io_time());
    return out;
  }
  std::vector<std::pair<Seconds, std::size_t>> keyed;
  keyed.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) keyed.emplace_back(key(records[i]), i);
  std::sort(keyed.begin(), keyed.end());
  for (const auto& [k, i] : keyed) out.push_back(records[i].io_time());
  return out;
}

}  // namespace

std::vector<double> TraceRecorder::io_times() const {
  return io_times_ordered_by(records_, [](const ReadRecord& r) { return r.end_time; });
}

std::vector<double> TraceRecorder::io_times_by_issue() const {
  return io_times_ordered_by(records_, [](const ReadRecord& r) { return r.issue_time; });
}

std::vector<Bytes> TraceRecorder::bytes_served_per_node(std::uint32_t node_count) const {
  std::vector<Bytes> out(node_count, 0);
  for (const auto& r : records_) {
    OPASS_REQUIRE(r.serving_node < node_count, "record references node out of range");
    out[r.serving_node] += r.bytes;
  }
  return out;
}

std::vector<std::uint32_t> TraceRecorder::ops_served_per_node(std::uint32_t node_count) const {
  std::vector<std::uint32_t> out(node_count, 0);
  for (const auto& r : records_) {
    OPASS_REQUIRE(r.serving_node < node_count, "record references node out of range");
    ++out[r.serving_node];
  }
  return out;
}

std::size_t TraceRecorder::local_count() const {
  std::size_t local = 0;
  for (const auto& r : records_)
    if (r.local) ++local;
  return local;
}

double TraceRecorder::local_fraction() const {
  return sim::local_fraction(local_count(), records_.size());
}

Seconds TraceRecorder::makespan() const {
  Seconds end = 0;
  for (const auto& r : records_) end = std::max(end, r.end_time);
  return end;
}

double local_fraction(std::size_t local, std::size_t total) {
  return total ? static_cast<double>(local) / static_cast<double>(total) : 0.0;
}

}  // namespace opass::sim
