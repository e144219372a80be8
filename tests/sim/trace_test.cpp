#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"

namespace opass::sim {
namespace {

ReadRecord rec(std::uint32_t proc, dfs::NodeId server, Bytes bytes, Seconds issue,
               Seconds end, bool local) {
  ReadRecord r;
  r.process = proc;
  r.reader_node = proc;
  r.serving_node = server;
  r.bytes = bytes;
  r.issue_time = issue;
  r.end_time = end;
  r.local = local;
  return r;
}

TEST(TraceRecorder, IoTimeIsEndMinusIssue) {
  EXPECT_DOUBLE_EQ(rec(0, 0, 10, 1.0, 3.5, true).io_time(), 2.5);
}

TEST(TraceRecorder, IoTimesOrderedByCompletion) {
  TraceRecorder t;
  t.add(rec(0, 0, 10, 0.0, 5.0, true));   // completes last
  t.add(rec(1, 1, 10, 0.0, 2.0, true));   // completes first
  t.add(rec(2, 2, 10, 1.0, 4.0, true));
  EXPECT_EQ(t.io_times(), (std::vector<double>{2.0, 3.0, 5.0}));
}

TEST(TraceRecorder, IoTimesByIssueOrder) {
  TraceRecorder t;
  t.add(rec(0, 0, 10, 2.0, 5.0, true));
  t.add(rec(1, 1, 10, 0.0, 2.0, true));
  EXPECT_EQ(t.io_times_by_issue(), (std::vector<double>{2.0, 3.0}));
}

TEST(TraceRecorder, BytesServedPerNode) {
  TraceRecorder t;
  t.add(rec(0, 1, 100, 0, 1, false));
  t.add(rec(1, 1, 50, 0, 1, false));
  t.add(rec(2, 0, 25, 0, 1, true));
  const auto served = t.bytes_served_per_node(3);
  EXPECT_EQ(served, (std::vector<Bytes>{25, 150, 0}));
}

TEST(TraceRecorder, OpsServedPerNode) {
  TraceRecorder t;
  t.add(rec(0, 1, 100, 0, 1, false));
  t.add(rec(1, 1, 50, 0, 1, false));
  const auto ops = t.ops_served_per_node(2);
  EXPECT_EQ(ops, (std::vector<std::uint32_t>{0, 2}));
}

TEST(TraceRecorder, ServedPerNodeRejectsOutOfRange) {
  TraceRecorder t;
  t.add(rec(0, 5, 100, 0, 1, false));
  EXPECT_THROW(t.bytes_served_per_node(3), std::invalid_argument);
}

TEST(TraceRecorder, LocalFraction) {
  TraceRecorder t;
  EXPECT_DOUBLE_EQ(t.local_fraction(), 0.0);
  t.add(rec(0, 0, 1, 0, 1, true));
  t.add(rec(0, 1, 1, 0, 1, false));
  t.add(rec(0, 0, 1, 0, 1, true));
  t.add(rec(0, 2, 1, 0, 1, false));
  EXPECT_EQ(t.local_count(), 2u);
  EXPECT_DOUBLE_EQ(t.local_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(local_fraction(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(local_fraction(0, 0), 0.0);
}

TEST(TraceRecorder, Makespan) {
  TraceRecorder t;
  EXPECT_DOUBLE_EQ(t.makespan(), 0.0);
  t.add(rec(0, 0, 1, 0, 4.5, true));
  t.add(rec(0, 0, 1, 0, 2.0, true));
  EXPECT_DOUBLE_EQ(t.makespan(), 4.5);
}

TEST(TraceRecorder, ClearEmpties) {
  TraceRecorder t;
  t.add(rec(0, 0, 1, 0, 1, true));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

/// The reductions' previous body: a stable sort of record pointers by the
/// key. io_times*() must reproduce its order exactly.
std::vector<double> reference_io_times(const TraceRecorder& t, bool by_issue) {
  std::vector<const ReadRecord*> ordered;
  for (const auto& r : t.records()) ordered.push_back(&r);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [by_issue](const ReadRecord* a, const ReadRecord* b) {
                     return by_issue ? a->issue_time < b->issue_time
                                     : a->end_time < b->end_time;
                   });
  std::vector<double> out;
  for (const auto* r : ordered) out.push_back(r->io_time());
  return out;
}

/// Bitwise equality, so -0.0 vs 0.0 or a reordered tie cannot hide.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(TraceRecorder, IoTimeOrdersMatchStablePointerSort) {
  // Shuffled records over a handful of distinct issue/end times, so most
  // keys tie and the tie order (record order) decides the output; the io
  // times themselves differ per record, which makes any tie swap visible.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    TraceRecorder t;
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng.uniform(300));
    for (std::uint32_t i = 0; i < n; ++i) {
      const Seconds issue = static_cast<double>(rng.uniform(5));
      const Seconds end = issue + 0.25 * static_cast<double>(1 + rng.uniform(8)) +
                          1e-6 * static_cast<double>(i);
      t.add(rec(i, 0, 1, issue, end, false));
    }
    EXPECT_TRUE(same_bits(t.io_times(), reference_io_times(t, false))) << "seed " << seed;
    EXPECT_TRUE(same_bits(t.io_times_by_issue(), reference_io_times(t, true)))
        << "seed " << seed;
  }
}

TEST(TraceRecorder, IoTimeOrdersOfSortedAndTiedRecords) {
  // Already in key order (the executor's completion order): the sort is
  // skipped and the output is record order. All-equal keys: record order too.
  TraceRecorder sorted, tied;
  for (std::uint32_t i = 0; i < 50; ++i) {
    sorted.add(rec(i, 0, 1, 0.5 * i, 0.5 * i + 1.0 + 0.01 * (i % 7), false));
    tied.add(rec(i, 0, 1, 2.0, 3.0 + 0.1 * i, false));
  }
  for (const TraceRecorder* t : {&sorted, &tied}) {
    EXPECT_TRUE(same_bits(t->io_times(), reference_io_times(*t, false)));
    EXPECT_TRUE(same_bits(t->io_times_by_issue(), reference_io_times(*t, true)));
  }
  EXPECT_TRUE(TraceRecorder().io_times().empty());
}

}  // namespace
}  // namespace opass::sim
