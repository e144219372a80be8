// Causal span log and attribution (DESIGN.md §13): naming taxonomy, the
// SpanLog::add reconciliation invariant (slices chain gap-free and telescope
// to the span duration), exec-span construction on a real small execution,
// the top-level-only attribution sums, and the critical path's exact-chaining
// and blame-total contracts.
#include "obs/spans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/attribution.hpp"
#include "runtime/task_source.hpp"
#include "sim/flow_sim.hpp"

namespace opass::obs {
namespace {

TEST(SpanName, EnforcesTheTaxonomy) {
  EXPECT_TRUE(valid_span_name("exec.task.run"));
  EXPECT_TRUE(valid_span_name("svc.job.queue"));
  EXPECT_TRUE(valid_span_name("a.b2.c_d"));
  EXPECT_FALSE(valid_span_name(""));
  EXPECT_FALSE(valid_span_name("exec.task"));            // two segments
  EXPECT_FALSE(valid_span_name("exec.task.run.more"));   // four segments
  EXPECT_FALSE(valid_span_name("exec.Task.run"));        // uppercase
  EXPECT_FALSE(valid_span_name("exec..run"));            // empty segment
  EXPECT_FALSE(valid_span_name("exec.task.run."));       // trailing dot
  EXPECT_FALSE(valid_span_name("exec.2task.run"));       // digit-led segment
  EXPECT_FALSE(valid_span_name("exec.ta sk.run"));       // space
}

Span make_span(std::int64_t start, std::int64_t end) {
  Span s;
  s.name = "exec.task.run";
  s.start_ticks = start;
  s.end_ticks = end;
  return s;
}

AttrSlice slice(AttrKind kind, std::int64_t start, std::int64_t end,
                dfs::NodeId node = dfs::kInvalidNode) {
  AttrSlice s;
  s.kind = kind;
  s.node = node;
  s.start_ticks = start;
  s.end_ticks = end;
  return s;
}

TEST(SpanLog, AddAssignsSequentialIdsAndTracksTheMakespan) {
  SpanLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.max_end_ticks(), 0);
  EXPECT_EQ(log.add(make_span(0, 10)), 0u);
  EXPECT_EQ(log.add(make_span(5, 30)), 1u);
  EXPECT_EQ(log.add(make_span(2, 20)), 2u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.max_end_ticks(), 30);
}

TEST(SpanLog, AddRejectsTaxonomyAndOrderingViolations) {
  SpanLog log;
  Span bad_name = make_span(0, 1);
  bad_name.name = "exec.task";
  EXPECT_THROW(log.add(bad_name), std::invalid_argument);
  Span no_name = make_span(0, 1);
  no_name.name = nullptr;
  EXPECT_THROW(log.add(no_name), std::invalid_argument);

  EXPECT_THROW(log.add(make_span(5, 4)), std::invalid_argument);  // ends early

  Span orphan = make_span(0, 1);
  orphan.parent = 7;  // no span 7 exists yet
  EXPECT_THROW(log.add(orphan), std::invalid_argument);
}

TEST(SpanLog, AddEnforcesTheReconciliationInvariant) {
  SpanLog log;

  // Gap between slices.
  const std::vector<AttrSlice> gapped = {slice(AttrKind::kSeek, 0, 4),
                                         slice(AttrKind::kSrcDisk, 5, 10)};
  EXPECT_THROW(log.add(make_span(0, 10), gapped), std::invalid_argument);

  // First slice opens after the span start.
  const std::vector<AttrSlice> late = {slice(AttrKind::kSrcDisk, 1, 10)};
  EXPECT_THROW(log.add(make_span(0, 10), late), std::invalid_argument);

  // Last slice closes before the span end.
  const std::vector<AttrSlice> short_tail = {slice(AttrKind::kSrcDisk, 0, 9)};
  EXPECT_THROW(log.add(make_span(0, 10), short_tail), std::invalid_argument);

  // Last slice runs past the span end.
  const std::vector<AttrSlice> long_tail = {slice(AttrKind::kSrcDisk, 0, 11)};
  EXPECT_THROW(log.add(make_span(0, 10), long_tail), std::invalid_argument);

  // A negative slice, even one the chain would telescope through.
  const std::vector<AttrSlice> negative = {slice(AttrKind::kSeek, 0, 6),
                                           slice(AttrKind::kSrcDisk, 6, 4),
                                           slice(AttrKind::kOther, 4, 10)};
  EXPECT_THROW(log.add(make_span(0, 10), negative), std::invalid_argument);

  // Rejected spans leave nothing behind: no span and no slice.
  EXPECT_TRUE(log.empty());

  // An exact tiling is accepted; zero-width slices are legal joints.
  const std::vector<AttrSlice> exact = {slice(AttrKind::kQueueWait, 0, 2),
                                        slice(AttrKind::kSeek, 2, 2),
                                        slice(AttrKind::kSrcDisk, 2, 10, /*node=*/3)};
  const auto id = log.add(make_span(0, 10), exact);
  const Span& stored = log.spans()[id];
  std::int64_t sum = 0;
  for (const AttrSlice& s : log.breakdown(stored)) sum += s.duration_ticks();
  EXPECT_EQ(sum, stored.duration_ticks());
}

TEST(SpanLog, BreakdownRoundTripsThroughTheArena) {
  SpanLog log;
  log.reserve(4, 8);
  const std::vector<AttrSlice> first = {slice(AttrKind::kSeek, 0, 3, /*node=*/1),
                                        slice(AttrKind::kSrcDisk, 3, 10, /*node=*/1)};
  const std::vector<AttrSlice> third = {slice(AttrKind::kQueueWait, 10, 12),
                                        slice(AttrKind::kDstNic, 12, 15, /*node=*/2),
                                        slice(AttrKind::kCompute, 15, 20)};
  Span stale = make_span(10, 20);
  stale.slice_begin = 99;  // the caller's slice fields are overwritten
  stale.slice_count = 7;
  const auto a = log.add(make_span(0, 10), first);
  const auto b = log.add(make_span(5, 5));  // untiled
  const auto c = log.add(stale, third);

  const auto same = [](std::span<const AttrSlice> got, const std::vector<AttrSlice>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].kind, want[i].kind);
      EXPECT_EQ(got[i].node, want[i].node);
      EXPECT_EQ(got[i].start_ticks, want[i].start_ticks);
      EXPECT_EQ(got[i].end_ticks, want[i].end_ticks);
    }
  };
  same(log.breakdown(log.spans()[a]), first);
  EXPECT_TRUE(log.breakdown(log.spans()[b]).empty());
  same(log.breakdown(log.spans()[c]), third);
  EXPECT_EQ(log.spans()[c].slice_begin, first.size());
  EXPECT_EQ(log.spans()[c].slice_count, third.size());

  // A copied span reads the same slices through the log.
  const Span copy = log.spans()[a];
  same(log.breakdown(copy), first);

  // A breakdown taken from the arena is shared, not copied.
  Span child = make_span(12, 15);
  child.parent = c;
  const auto d = log.add(child, log.breakdown(log.spans()[c]).subspan(1, 1));
  EXPECT_EQ(log.breakdown(log.spans()[d]).data(), log.breakdown(log.spans()[c]).data() + 1);
  same(log.breakdown(log.spans()[d]), {third[1]});
  // Shared slices are still validated against the new span.
  Span misfit = make_span(11, 15);
  EXPECT_THROW(log.add(misfit, log.breakdown(log.spans()[c]).subspan(1, 1)),
               std::invalid_argument);
}

// --- exec spans on a real execution ----------------------------------------

struct SpanFixture : ::testing::Test {
  SpanFixture()
      : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(1) {
    params.disk_bandwidth = 64.0 * kMiB;  // 1 s per local chunk
    params.nic_bandwidth = 64.0 * kMiB;
    params.disk_beta = 0.0;
    params.seek_latency = 0.0;
    params.remote_latency = 0.0;
    params.remote_stream_cap = 0.0;
  }

  std::vector<runtime::Task> make_tasks(std::uint32_t chunks) {
    const auto fid = nn.create_file(chunks * kDefaultChunkSize, policy, rng);
    return runtime::single_input_tasks(nn, {fid});
  }

  runtime::ExecutionResult run(const std::vector<runtime::Task>& tasks,
                               sim::Cluster& cluster, runtime::ExecutorConfig config) {
    runtime::StaticAssignmentSource source(
        runtime::rank_interval_assignment(static_cast<std::uint32_t>(tasks.size()), 4));
    config.record_read_breakdown = true;
    return runtime::execute(cluster, nn, tasks, source, rng, config);
  }

  dfs::NameNode nn;
  dfs::RoundRobinPlacement policy;
  Rng rng;
  sim::ClusterParams params;
};

TEST_F(SpanFixture, ExecutionSpansReconcileExactly) {
  auto tasks = make_tasks(8);
  for (auto& t : tasks) t.compute_time = 0.25;
  sim::Cluster cluster(4, params);
  const auto exec = run(tasks, cluster, {});

  SpanLog log;
  append_execution_spans(log, exec, tasks, cluster);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.max_end_ticks(), sim::to_ticks(exec.makespan));

  std::size_t task_spans = 0, read_spans = 0;
  for (const Span& s : log.spans()) {
    // Every breakdown telescopes to its span (SpanLog::add guarantees it;
    // assert anyway so a future bypass of add() cannot rot silently).
    std::int64_t sum = 0;
    for (const AttrSlice& sl : log.breakdown(s)) sum += sl.duration_ticks();
    if (!log.breakdown(s).empty()) {
      EXPECT_EQ(sum, s.duration_ticks());
    }
    if (s.kind == SpanKind::kTask) {
      ++task_spans;
      EXPECT_EQ(s.parent, kNoSpan);
      EXPECT_FALSE(log.breakdown(s).empty());
    }
    if (s.kind == SpanKind::kRead) {
      ++read_spans;
      ASSERT_NE(s.parent, kNoSpan);
      EXPECT_EQ(log.spans()[s.parent].kind, SpanKind::kTask);
      EXPECT_EQ(log.spans()[s.parent].task, s.task);
    }
  }
  EXPECT_EQ(task_spans, tasks.size());
  EXPECT_EQ(read_spans, exec.trace.size());

  // The compute phase shows up: each task span's kCompute ticks equal its
  // compute_time exactly (no contention in this tiny run).
  for (const Span& s : log.spans()) {
    if (s.kind != SpanKind::kTask) continue;
    std::int64_t compute = 0;
    for (const AttrSlice& sl : log.breakdown(s))
      if (sl.kind == AttrKind::kCompute) compute += sl.duration_ticks();
    EXPECT_EQ(compute, sim::to_ticks(0.25));
  }
}

TEST_F(SpanFixture, ReadSpansShareTheirTasksSlices) {
  const auto tasks = make_tasks(8);
  sim::Cluster cluster(4, params);
  const auto exec = run(tasks, cluster, {});
  SpanLog log;
  append_execution_spans(log, exec, tasks, cluster);
  // One read per task and no compute: each read's slices are its task's
  // whole tiling, stored once.
  for (const Span& s : log.spans()) {
    if (s.kind != SpanKind::kRead) continue;
    const Span& task = log.spans()[s.parent];
    EXPECT_EQ(s.slice_begin, task.slice_begin);
    EXPECT_EQ(s.slice_count, task.slice_count);
    EXPECT_GT(s.slice_count, 0u);
  }
}

TEST_F(SpanFixture, BarrierRunsEmitWaitSpans) {
  auto tasks = make_tasks(8);
  tasks[0].compute_time = 2.0;  // one straggler stalls every wave
  sim::Cluster cluster(4, params);
  runtime::ExecutorConfig config;
  config.barrier_per_task = true;
  const auto exec = run(tasks, cluster, config);

  SpanLog log;
  append_execution_spans(log, exec, tasks, cluster);
  std::int64_t barrier_ticks = 0;
  for (const Span& s : log.spans()) {
    if (s.kind != SpanKind::kWait) continue;
    EXPECT_STREQ(s.name, "exec.wave.wait");
    for (const AttrSlice& sl : log.breakdown(s))
      if (sl.kind == AttrKind::kBarrier) barrier_ticks += sl.duration_ticks();
  }
  EXPECT_GT(barrier_ticks, 0);
}

TEST_F(SpanFixture, AttributionSumsTopLevelSpansOnly) {
  const auto tasks = make_tasks(8);
  sim::Cluster cluster(4, params);
  const auto exec = run(tasks, cluster, {});

  SpanLog log;
  append_execution_spans(log, exec, tasks, cluster);
  const AttributionTotals totals = attribute_spans(log, /*node_count=*/4);

  std::int64_t top_level = 0;
  for (const Span& s : log.spans())
    if (s.parent == kNoSpan) top_level += s.duration_ticks();
  EXPECT_EQ(totals.total_ticks, top_level);

  std::int64_t kind_sum = 0;
  for (std::int64_t t : totals.kind_ticks) kind_sum += t;
  EXPECT_EQ(kind_sum, totals.total_ticks);

  // Node blame never exceeds the attributed total.
  std::int64_t node_sum = 0;
  for (std::int64_t t : totals.node_ticks) node_sum += t;
  EXPECT_LE(node_sum, totals.total_ticks);
  // This run is disk-bound (disk == NIC bandwidth, disk wins ties).
  EXPECT_GT(totals.kind_ticks[static_cast<std::size_t>(AttrKind::kSrcDisk)], 0);
}

TEST_F(SpanFixture, CriticalPathChainsExactlyAndExplainsTheMakespan) {
  auto tasks = make_tasks(8);
  for (auto& t : tasks) t.compute_time = 0.5;
  sim::Cluster cluster(4, params);
  runtime::ExecutorConfig config;
  config.barrier_per_task = true;
  const auto exec = run(tasks, cluster, config);

  SpanLog log;
  append_execution_spans(log, exec, tasks, cluster);
  const CriticalPath cp = critical_path(log, /*node_count=*/4);
  ASSERT_FALSE(cp.steps.empty());

  // Steps chain gap-free and the last ends at the makespan.
  for (std::size_t i = 1; i < cp.steps.size(); ++i)
    EXPECT_EQ(cp.steps[i].start_ticks, cp.steps[i - 1].end_ticks);
  EXPECT_EQ(cp.steps.back().end_ticks, log.max_end_ticks());

  // Blame totals cover exactly the path's span.
  const std::int64_t covered = cp.steps.back().end_ticks - cp.steps.front().start_ticks;
  EXPECT_EQ(cp.blame.total_ticks, covered);
  std::int64_t kind_sum = 0;
  for (std::int64_t t : cp.blame.kind_ticks) kind_sum += t;
  EXPECT_EQ(kind_sum, covered);

  // Every non-idle step is a task span.
  for (const auto& step : cp.steps) {
    if (step.span == kNoSpan) continue;
    ASSERT_LT(step.span, log.size());
    EXPECT_EQ(log.spans()[step.span].kind, SpanKind::kTask);
  }
}

TEST_F(SpanFixture, CriticalPathOfAnEmptyLogIsEmpty) {
  SpanLog log;
  const CriticalPath cp = critical_path(log, 4);
  EXPECT_TRUE(cp.steps.empty());
  EXPECT_EQ(cp.blame.total_ticks, 0);
}

TEST(ServiceSpans, PlannedJobsGetQueueAndPlanSpans) {
  std::vector<core::JobStatus> statuses(3);
  statuses[0].id = 10;
  statuses[0].state = core::JobState::kPlanned;
  statuses[0].tenant = 1;
  statuses[0].arrival = 0.5;
  statuses[0].planned_at = 2.0;
  statuses[1].id = 11;
  statuses[1].state = core::JobState::kQueued;  // still queued: no span
  statuses[2].id = 12;
  statuses[2].state = core::JobState::kCompleted;
  statuses[2].tenant = 2;
  statuses[2].arrival = 1.0;
  statuses[2].planned_at = 2.0;

  SpanLog log;
  append_service_spans(log, statuses);
  std::size_t queue = 0, plan = 0;
  for (const Span& s : log.spans()) {
    if (s.kind == SpanKind::kQueue) {
      ++queue;
      EXPECT_STREQ(s.name, "svc.job.queue");
      ASSERT_EQ(log.breakdown(s).size(), 1u);
      EXPECT_EQ(log.breakdown(s)[0].kind, AttrKind::kQueueWait);
    }
    if (s.kind == SpanKind::kPlan) {
      ++plan;
      EXPECT_EQ(s.duration_ticks(), 0);
    }
  }
  EXPECT_EQ(queue, 2u);  // the queued job contributes nothing
  EXPECT_EQ(plan, 2u);

  // Tenant rides in `process`, job id in `task` — the per-tenant aggregation
  // key the ROADMAP's co-simulation item needs.
  const Span& first = log.spans()[0];
  EXPECT_EQ(first.process, 1u);
  EXPECT_EQ(first.task, 10u);
  EXPECT_EQ(first.duration_ticks(), sim::to_ticks(2.0) - sim::to_ticks(0.5));
}

TEST_F(SpanFixture, SpanDocRendersDeterministically) {
  const auto tasks = make_tasks(8);
  const auto build = [&] {
    Rng local_rng(1);
    sim::Cluster cluster(4, params);
    runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(8, 4));
    runtime::ExecutorConfig config;
    config.record_read_breakdown = true;
    const auto exec = runtime::execute(cluster, nn, tasks, source, local_rng, config);
    SpanLog log;
    append_execution_spans(log, exec, tasks, cluster);
    SpanDocBuilder doc;
    doc.add_method("baseline", log, 4);
    return std::make_pair(doc.spans_json(), doc.critical_path_json());
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(a.second.find("\"steps\""), std::string::npos);
}

}  // namespace
}  // namespace opass::obs
