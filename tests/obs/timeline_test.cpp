#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "exp/experiment.hpp"

namespace opass::obs {
namespace {

TimelineRecorder::Options options(Seconds interval, std::size_t capacity = 8192) {
  TimelineRecorder::Options opt;
  opt.interval = interval;
  opt.capacity = capacity;
  return opt;
}

TEST(TimelineName, EnforcesTheTaxonomy) {
  EXPECT_TRUE(valid_timeline_series_name("timeline.cluster.inflight"));
  EXPECT_TRUE(valid_timeline_series_name("timeline.cluster.node.3.serve_bytes_per_s"));
  EXPECT_FALSE(valid_timeline_series_name("timeline.cluster"));       // two segments
  EXPECT_FALSE(valid_timeline_series_name("metrics.cluster.x"));      // wrong root
  EXPECT_FALSE(valid_timeline_series_name("timeline.Cluster.x"));     // uppercase
  EXPECT_FALSE(valid_timeline_series_name("timeline..x"));            // empty segment
  EXPECT_FALSE(valid_timeline_series_name("timeline.cluster.x."));    // trailing dot
  EXPECT_FALSE(valid_timeline_series_name("timeline.clu ster.x"));    // space
}

TEST(TimelineRecorder, RejectsBadNamesAndDuplicates) {
  TimelineRecorder t(options(1.0));
  EXPECT_THROW(t.add_level_series("queue_depth"), std::invalid_argument);
  EXPECT_THROW(t.add_rate_series("timeline.serve"), std::invalid_argument);
  t.add_level_series("timeline.test.depth");
  EXPECT_THROW(t.add_level_series("timeline.test.depth"), std::invalid_argument);
}

TEST(TimelineRecorder, LevelsRepeatAcrossEmptyIntervals) {
  TimelineRecorder t(options(1.0));
  const auto id = t.add_level_series("timeline.test.depth", /*initial=*/2);
  t.record_level(id, 2.5, 7);
  t.finish(5.0);
  // Boundaries 0,1,2 sample the initial value (the t=2.5 event lands after
  // boundary 2); boundaries 3,4,5 see the new level.
  EXPECT_EQ(t.series_values(id), (std::vector<double>{2, 2, 2, 7, 7, 7}));
  EXPECT_EQ(t.partial_duration(), 0.0);
}

TEST(TimelineRecorder, EventExactlyOnABoundaryChargesTheNextInterval) {
  TimelineRecorder t(options(1.0));
  const auto level = t.add_level_series("timeline.test.depth");
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  t.record_level(level, 2.0, 5);  // exactly on boundary 2
  t.record_rate(rate, 2.0, 10);
  t.finish(3.5);
  // Boundary 2 is emitted with the pre-event state; the event shows at 3.
  EXPECT_EQ(t.series_values(level), (std::vector<double>{0, 0, 0, 5, 5}));
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{0, 0, 0, 10, 0}));
}

TEST(TimelineRecorder, RatesConvertToPerSecond) {
  TimelineRecorder t(options(0.5));
  const auto id = t.add_rate_series("timeline.test.bytes_per_s");
  t.record_rate(id, 0.1, 30);
  t.record_rate(id, 0.4, 20);
  t.record_rate(id, 0.7, 5);
  t.finish(1.0);
  // Interval (0, 0.5] carries 50 units -> 100/s at boundary 1; (0.5, 1.0]
  // carries 5 -> 10/s folded into the final boundary (end lands on it).
  EXPECT_EQ(t.series_values(id), (std::vector<double>{0, 100, 10}));
}

TEST(TimelineRecorder, FinishInsideAnIntervalEmitsAScaledPartialSample) {
  TimelineRecorder t(options(1.0));
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  const auto level = t.add_level_series("timeline.test.depth");
  t.record_rate(rate, 2.25, 10);
  t.record_level(level, 2.25, 4);
  t.finish(2.5);
  // The open remainder (2, 2.5] is half an interval: 10 units over 0.5 s.
  EXPECT_DOUBLE_EQ(t.partial_duration(), 0.5);
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{0, 0, 0, 20}));
  EXPECT_EQ(t.series_values(level), (std::vector<double>{0, 0, 0, 4}));
  EXPECT_DOUBLE_EQ(t.end_time(), 2.5);
}

TEST(TimelineRecorder, SamplesExactlyOnTheEndTime) {
  // End exactly on a boundary: no partial sample, and events stamped at the
  // end restamp the final boundary instead of vanishing into a never-emitted
  // next interval.
  TimelineRecorder t(options(1.0));
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  const auto level = t.add_level_series("timeline.test.depth", /*initial=*/1);
  t.record_rate(rate, 3.0, 6);   // the run's final completions
  t.record_level(level, 3.0, 0);
  t.finish(3.0);
  EXPECT_EQ(t.partial_duration(), 0.0);
  EXPECT_EQ(t.tick_count(), 4u);  // boundaries 0..3
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{0, 0, 0, 6}));
  EXPECT_EQ(t.series_values(level), (std::vector<double>{1, 1, 1, 0}));
}

TEST(TimelineRecorder, FinishIsFinal) {
  TimelineRecorder t(options(1.0));
  const auto id = t.add_level_series("timeline.test.depth");
  t.finish(1.0);
  EXPECT_TRUE(t.finished());
  EXPECT_THROW(t.record_level(id, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(t.finish(2.0), std::invalid_argument);
  EXPECT_THROW(t.add_level_series("timeline.test.late"), std::invalid_argument);
}

TEST(TimelineRecorder, RingWrapKeepsTheNewestTicks) {
  TimelineRecorder t(options(1.0, /*capacity=*/4));
  const auto id = t.add_level_series("timeline.test.depth");
  for (int k = 1; k <= 10; ++k)
    t.record_level(id, static_cast<double>(k), k);  // boundary k samples k-1
  t.finish(10.0);
  EXPECT_EQ(t.tick_count(), 11u);
  EXPECT_EQ(t.dropped_ticks(), 7u);
  EXPECT_EQ(t.first_retained_tick(), 7u);
  // Ticks 7..10 survive; the end-on-boundary restamp lifts tick 10 to the
  // final level.
  EXPECT_EQ(t.series_values(id), (std::vector<double>{6, 7, 8, 10}));
}

TEST(TimelineRecorder, ZeroLengthRunRestampsTickZero) {
  // A run that starts and ends at t = 0: the lone boundary is restamped with
  // the end state instead of the never-emitted "next interval" swallowing it.
  TimelineRecorder t(options(1.0));
  const auto level = t.add_level_series("timeline.test.depth", /*initial=*/1);
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  t.record_level(level, 0.0, 5);
  t.record_rate(rate, 0.0, 4);
  t.finish(0.0);
  EXPECT_EQ(t.tick_count(), 1u);
  EXPECT_EQ(t.partial_duration(), 0.0);
  EXPECT_EQ(t.series_values(level), (std::vector<double>{5}));
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{4}));
}

TEST(TimelineRecorder, RestampFoldsInIntervalAndOnBoundaryMassTogether) {
  // Rate mass lands both strictly inside the final interval (2.4) and
  // exactly on the end boundary (3.0); the restamp must fold both into the
  // final sample — neither may leak into a phantom interval 4.
  TimelineRecorder t(options(1.0));
  const auto id = t.add_rate_series("timeline.test.bytes_per_s");
  t.record_rate(id, 2.4, 7);
  t.record_rate(id, 3.0, 3);
  t.finish(3.0);
  EXPECT_EQ(t.partial_duration(), 0.0);
  EXPECT_EQ(t.series_values(id), (std::vector<double>{0, 0, 0, 10}));
}

TEST(TimelineRecorder, PartialWindowCarriesOnEndEvents) {
  // Events stamped exactly at a mid-interval end belong to the partial
  // window, scaled by its true duration (0.25 s here -> 5 / 0.25 = 20/s).
  TimelineRecorder t(options(1.0));
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  const auto level = t.add_level_series("timeline.test.depth");
  t.record_rate(rate, 1.25, 5);
  t.record_level(level, 1.25, 9);
  t.finish(1.25);
  EXPECT_DOUBLE_EQ(t.partial_duration(), 0.25);
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{0, 0, 20}));
  EXPECT_EQ(t.series_values(level), (std::vector<double>{0, 0, 9}));
}

TEST(TimelineRecorder, ConstantSeriesStoresOnePoint) {
  TimelineRecorder t(options(1.0));
  const auto level = t.add_level_series("timeline.test.depth", /*initial=*/3);
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  for (int k = 1; k < 1000; ++k) t.record_level(level, k + 0.5, 3);
  t.finish(999.0);
  EXPECT_EQ(t.tick_count(), 1000u);
  EXPECT_EQ(t.stored_points(level), 1u);
  EXPECT_EQ(t.stored_points(rate), 1u);
  EXPECT_EQ(t.series_values(level), std::vector<double>(1000, 3));
  EXPECT_EQ(t.series_values(rate), std::vector<double>(1000, 0));
}

TEST(TimelineRecorder, SignedZeroAndNanPayloadsComeBackBitExact) {
  // -0.0 == 0.0 and two NaNs never compare equal, so only a bit-pattern
  // comparison stores each of these as its own change point.
  const double nan_a = std::bit_cast<double>(std::uint64_t{0x7ff8000000000001});
  const double nan_b = std::bit_cast<double>(std::uint64_t{0x7ff8000000000002});
  TimelineRecorder t(options(1.0));
  const auto id = t.add_level_series("timeline.test.depth", /*initial=*/0.0);
  t.record_level(id, 1.5, -0.0);
  t.record_level(id, 2.5, nan_a);
  t.record_level(id, 3.5, nan_b);
  t.record_level(id, 4.5, nan_b);
  t.record_level(id, 5.5, 0.0);
  t.finish(7.0);
  const std::vector<double> want = {0.0, 0.0, -0.0, nan_a, nan_b, nan_b, 0.0, 0.0};
  const std::vector<double> got = t.series_values(id);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << "tick " << i;
  EXPECT_EQ(t.stored_points(id), 5u);
}

TEST(TimelineRecorder, RestampOnBoundaryAfterAFlatTail) {
  // The last change happened long before the final tick; the end-on-boundary
  // restamp must change only that tick.
  TimelineRecorder t(options(1.0));
  const auto level = t.add_level_series("timeline.test.depth");
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  // Changes at the final tick, then the on-boundary event undoes it.
  const auto undone = t.add_level_series("timeline.test.undone", /*initial=*/4);
  t.record_level(level, 0.5, 4);
  t.record_rate(rate, 0.5, 2);
  t.record_level(undone, 9.5, 5);
  t.record_level(level, 10.0, 8);
  t.record_rate(rate, 10.0, 6);
  t.record_level(undone, 10.0, 4);
  t.finish(10.0);
  EXPECT_EQ(t.partial_duration(), 0.0);
  EXPECT_EQ(t.series_values(level), (std::vector<double>{0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 8}));
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 6}));
  EXPECT_EQ(t.series_values(undone), std::vector<double>(11, 4));
  EXPECT_EQ(t.stored_points(level), 3u);
  EXPECT_EQ(t.stored_points(rate), 4u);
  EXPECT_EQ(t.stored_points(undone), 1u);
}

TEST(TimelineRecorder, WrapWithAChangeEveryTickStaysWithinTheCapacityBound) {
  constexpr std::size_t kCapacity = 8;
  TimelineRecorder t(options(1.0, kCapacity));
  const auto id = t.add_level_series("timeline.test.depth");
  for (int k = 1; k <= 1000; ++k) {
    t.record_level(id, static_cast<double>(k), k);  // boundary k samples k-1
    ASSERT_LE(t.stored_points(id), 2 * kCapacity) << "after tick " << k;
  }
  t.finish(1000.5);
  EXPECT_LE(t.stored_points(id), 2 * kCapacity);
  EXPECT_EQ(t.tick_count(), 1001u);
  EXPECT_EQ(t.first_retained_tick(), 993u);
  EXPECT_EQ(t.dropped_ticks(), 993u);
  // Ticks 993..1000, then the partial sample with the final level.
  EXPECT_EQ(t.series_values(id),
            (std::vector<double>{992, 993, 994, 995, 996, 997, 998, 999, 1000}));
}

TEST(TimelineRecorder, PrunedSeriesMatchTheTailOfUnprunedOnes) {
  // The same random event stream into a small-capacity recorder and an
  // unbounded one: pruning must only cut the front, so the small one's
  // values equal the newest `capacity` ticks (plus the partial) of the big
  // one — after every event, and for runs ending on and off a boundary.
  for (const Seconds end : {600.0, 600.3}) {
    constexpr std::size_t kCapacity = 16;
    TimelineRecorder small(options(1.0, kCapacity));
    TimelineRecorder full(options(1.0, 1 << 20));
    std::vector<TimelineRecorder::SeriesId> ids;
    for (TimelineRecorder* t : {&small, &full}) {
      ids = {t->add_level_series("timeline.test.depth"),
             t->add_rate_series("timeline.test.bytes_per_s"),
             t->add_level_series("timeline.test.flat", /*initial=*/1)};
    }
    auto expect_tail = [&](TimelineRecorder::SeriesId id) {
      const std::vector<double> want = full.series_values(id);
      const std::vector<double> got = small.series_values(id);
      ASSERT_LE(got.size(), want.size());
      EXPECT_EQ(got, std::vector<double>(want.end() - static_cast<std::ptrdiff_t>(got.size()),
                                         want.end()))
          << small.series_name(id) << " at tick " << small.tick_count() << ", end " << end;
      EXPECT_LE(small.stored_points(id), 2 * kCapacity);
    };
    Rng rng(11);
    for (Seconds now = 0; now < end; now += 0.25 * static_cast<double>(rng.uniform(9))) {
      const auto level = static_cast<double>(rng.uniform(3));
      const auto bytes = static_cast<double>(rng.uniform(2));
      for (TimelineRecorder* t : {&small, &full}) {
        t->record_level(ids[0], now, level);
        t->record_rate(ids[1], now, bytes);
      }
      for (const auto id : ids) expect_tail(id);
    }
    for (TimelineRecorder* t : {&small, &full}) {
      t->record_level(ids[0], end, 7);
      t->record_rate(ids[1], end, 5);
      t->finish(end);
    }
    ASSERT_EQ(small.tick_count(), full.tick_count());
    EXPECT_EQ(small.first_retained_tick(), full.tick_count() - kCapacity);
    for (const auto id : ids) {
      EXPECT_EQ(small.series_values(id).size(),
                kCapacity + (small.partial_duration() > 0 ? 1 : 0));
      expect_tail(id);
    }
    EXPECT_EQ(small.stored_points(ids[2]), 1u);
  }
}

sim::FaultEvent crash_at(Seconds at, dfs::NodeId node) {
  sim::FaultEvent ev;
  ev.at = at;
  ev.kind = sim::FaultKind::kCrash;
  ev.node = node;
  return ev;
}

TEST(TimelineFaults, CrashRunFinishesWithAConsistentWindowShape) {
  // A mid-run crash + recovery must still leave the recorder in a coherent
  // end state: flushed at the makespan, with every series carrying exactly
  // tick_count retained boundaries plus at most one partial sample.
  TimelineRecorder recorder(options(0.5));
  exp::ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 42;
  cfg.timeline = &recorder;
  sim::FaultPlan plan;
  plan.events.push_back(crash_at(2.0, 5));
  sim::FaultStats stats;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  const auto out = exp::run_single_data(cfg, /*chunk_count=*/80, exp::Method::kOpass);

  ASSERT_EQ(stats.crashes, 1u);
  ASSERT_TRUE(recorder.finished());
  // Recovery traffic (the victim's re-replication copies) keeps the cluster
  // clock running past the job's makespan; the recorder is flushed at the
  // cluster end, so the crash's background tail is part of the window.
  EXPECT_GE(recorder.end_time(), out.makespan);
  EXPECT_GE(recorder.partial_duration(), 0.0);
  EXPECT_LT(recorder.partial_duration(), recorder.interval());
  const std::size_t expected =
      static_cast<std::size_t>(recorder.tick_count() - recorder.first_retained_tick()) +
      (recorder.partial_duration() > 0 ? 1 : 0);
  for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
    EXPECT_EQ(recorder.series_values(s).size(), expected) << recorder.series_name(s);

  const auto find = [&](const char* name) {
    TimelineRecorder::SeriesId id = UINT32_MAX;
    for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
      if (recorder.series_name(s) == name) id = s;
    EXPECT_NE(id, UINT32_MAX) << name;
    return id;
  };
  // The reassigned work still drains: no reads stay in flight at the end.
  EXPECT_EQ(recorder.series_values(find("timeline.cluster.inflight")).back(), 0.0);
  // Re-replication reads were never announced via add_expected_bytes, so the
  // bytes_remaining level ends exactly `rereplicated_bytes` below zero — the
  // recovery traffic is visible, byte for byte, in the timeline.
  EXPECT_EQ(recorder.series_values(find("timeline.cluster.bytes_remaining")).back(),
            -static_cast<double>(stats.rereplicated_bytes));
}

TEST(TimelineFaults, CrashReplaysRecordByteIdenticalSeries) {
  const auto run = [] {
    TimelineRecorder recorder(options(0.5));
    exp::ExperimentConfig cfg;
    cfg.nodes = 16;
    cfg.seed = 42;
    cfg.timeline = &recorder;
    sim::FaultPlan plan;
    plan.events.push_back(crash_at(2.0, 5));
    cfg.faults = &plan;
    exp::run_single_data(cfg, /*chunk_count=*/80, exp::Method::kOpass);
    std::vector<std::vector<double>> all;
    for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
      all.push_back(recorder.series_values(s));
    return all;
  };
  EXPECT_EQ(run(), run());
}

TEST(TimelineProbes, RecordAFullRunEndToEnd) {
  TimelineRecorder recorder(options(0.5));
  exp::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 42;
  cfg.timeline = &recorder;
  runtime::ExecutionResult raw;
  cfg.raw = &raw;
  const auto out = exp::run_single_data(cfg, /*chunk_count=*/40, exp::Method::kOpass);

  ASSERT_TRUE(recorder.finished());
  EXPECT_DOUBLE_EQ(recorder.end_time(), out.makespan);

  // Per-node serve-rate integral over the samples reproduces the trace's
  // total served bytes (rates are bytes/s, boundary samples span interval
  // seconds, the trailing sample its partial duration).
  const std::vector<Bytes> served = raw.trace.bytes_served_per_node(cfg.nodes);
  for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
    TimelineRecorder::SeriesId id = UINT32_MAX;
    const std::string name =
        "timeline.cluster.node." + std::to_string(n) + ".serve_bytes_per_s";
    for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
      if (recorder.series_name(s) == name) id = s;
    ASSERT_NE(id, UINT32_MAX) << name;
    const std::vector<double> values = recorder.series_values(id);
    double integral = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const bool partial_tail =
          recorder.partial_duration() > 0 && i + 1 == values.size();
      integral += values[i] * (partial_tail ? recorder.partial_duration()
                                            : recorder.interval());
    }
    EXPECT_NEAR(integral, static_cast<double>(served[n]), 1.0) << name;
  }

  // In-flight reads and queue depth both drain to zero at the end.
  for (const char* name : {"timeline.cluster.inflight", "timeline.executor.queue_depth",
                           "timeline.cluster.bytes_remaining"}) {
    TimelineRecorder::SeriesId id = UINT32_MAX;
    for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
      if (recorder.series_name(s) == name) id = s;
    ASSERT_NE(id, UINT32_MAX) << name;
    EXPECT_EQ(recorder.series_values(id).back(), 0.0) << name;
  }
}

TEST(TimelineProbes, RecordedRunsAreDeterministic) {
  const auto run = [] {
    TimelineRecorder recorder(options(0.5));
    exp::ExperimentConfig cfg;
    cfg.nodes = 8;
    cfg.seed = 7;
    cfg.timeline = &recorder;
    exp::run_single_data(cfg, /*chunk_count=*/40, exp::Method::kBaseline);
    std::vector<std::vector<double>> all;
    for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
      all.push_back(recorder.series_values(s));
    return all;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace opass::obs
