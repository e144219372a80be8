#include "obs/spans.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/require.hpp"

namespace opass::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTask: return "task";
    case SpanKind::kRead: return "read";
    case SpanKind::kWait: return "wait";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kPlan: return "plan";
  }
  return "?";
}

const char* attr_kind_name(AttrKind kind) {
  switch (kind) {
    case AttrKind::kQueueWait: return "queue_wait";
    case AttrKind::kSeek: return "seek";
    case AttrKind::kSrcDisk: return "src_disk";
    case AttrKind::kSrcNic: return "src_nic";
    case AttrKind::kDstNic: return "dst_nic";
    case AttrKind::kRackUplink: return "rack_uplink";
    case AttrKind::kRackDownlink: return "rack_downlink";
    case AttrKind::kStreamCap: return "stream_cap";
    case AttrKind::kDegraded: return "degraded";
    case AttrKind::kCompute: return "compute";
    case AttrKind::kBarrier: return "barrier";
    case AttrKind::kOther: return "other";
  }
  return "?";
}

bool valid_span_name(std::string_view name) {
  std::size_t segments = 0;
  std::size_t seg_len = 0;
  for (char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;
      ++segments;
      seg_len = 0;
      continue;
    }
    const bool letter = c >= 'a' && c <= 'z';
    const bool tail = letter || (c >= '0' && c <= '9') || c == '_';
    if (seg_len == 0 ? !letter : !tail) return false;
    ++seg_len;
  }
  if (seg_len == 0) return false;
  return segments == 2;  // exactly three segments: layer.noun.verb
}

std::uint32_t SpanLog::add(Span span, std::span<const AttrSlice> breakdown) {
  // A breakdown inside the arena is an earlier span's slices: referenced,
  // not copied.
  const std::less_equal<const AttrSlice*> le;
  const bool in_arena = !breakdown.empty() && le(slices_.data(), breakdown.data()) &&
                        le(breakdown.data() + breakdown.size(), slices_.data() + slices_.size());
  OPASS_REQUIRE(span.name != nullptr && valid_span_name(span.name),
                "span name must be layer.noun.verb ([a-z0-9_], 3 segments)");
  OPASS_REQUIRE(span.end_ticks >= span.start_ticks, "span must not end before it starts");
  OPASS_REQUIRE(span.parent == kNoSpan || span.parent < spans_.size(),
                "span parent must be a previously added span");
  if (!breakdown.empty()) {
    // The reconciliation invariant: slices chain gap-free from the span's
    // start to its end, so their integer durations telescope exactly to the
    // span duration. This is what makes attribution sums trustworthy.
    std::int64_t cursor = span.start_ticks;
    for (const AttrSlice& s : breakdown) {
      OPASS_REQUIRE(s.start_ticks == cursor, "breakdown slices must chain gap-free");
      OPASS_REQUIRE(s.end_ticks >= s.start_ticks, "breakdown slice must not be negative");
      cursor = s.end_ticks;
    }
    OPASS_REQUIRE(cursor == span.end_ticks,
                  "breakdown must close exactly at the span end");
  }
  OPASS_REQUIRE(slices_.size() + breakdown.size() <= UINT32_MAX,
                "span log slice arena is full");
  span.id = static_cast<std::uint32_t>(spans_.size());
  span.slice_count = static_cast<std::uint32_t>(breakdown.size());
  if (in_arena) {
    span.slice_begin = static_cast<std::uint32_t>(breakdown.data() - slices_.data());
  } else {
    span.slice_begin = static_cast<std::uint32_t>(slices_.size());
    slices_.insert(slices_.end(), breakdown.begin(), breakdown.end());
  }
  max_end_ticks_ = std::max(max_end_ticks_, span.end_ticks);
  spans_.push_back(span);
  return span.id;
}

void SpanLog::reserve(std::size_t spans, std::size_t slices) {
  // At least doubling, so a log filled step by step (ParaView steps,
  // iterative epochs) is not copied whole on every step.
  const auto grow = [](auto& v, std::size_t more) {
    if (v.capacity() - v.size() < more) v.reserve(std::max(v.size() + more, 2 * v.capacity()));
  };
  grow(spans_, spans);
  grow(slices_, slices);
}

namespace {

/// Append a slice, merging into the previous one when kind and blamed node
/// match (water-filling can re-pin the same constraint across re-levels).
void push_slice(std::vector<AttrSlice>& slices, AttrKind kind, dfs::NodeId node,
                std::int64_t start, std::int64_t end) {
  if (end <= start) return;
  if (!slices.empty() && slices.back().kind == kind && slices.back().node == node &&
      slices.back().end_ticks == start) {
    slices.back().end_ticks = end;
    return;
  }
  slices.push_back({kind, node, start, end});
}

/// Was `node` running at reduced speed at tick `t`? Replays the cluster's
/// degrade/restore event log (chronological by construction); the last event
/// at or before `t` wins.
bool degraded_at(const std::vector<sim::SpeedChange>& changes, dfs::NodeId node,
                 std::int64_t t) {
  double factor = 1.0;
  for (const sim::SpeedChange& c : changes) {
    if (c.ticks > t) break;
    if (c.node == node) factor = c.factor;
  }
  return factor < 1.0;
}

/// Classify one binding-resource interval of a read's transfer into its
/// causal bucket. A binding resource owned by a degraded node is charged to
/// kDegraded — the slow node, not the hardware role, is the story there.
AttrSlice classify_interval(const sim::BindingInterval& bi, const sim::Cluster& cluster,
                            dfs::NodeId server) {
  AttrSlice s;
  s.start_ticks = bi.start_ticks;
  s.end_ticks = bi.end_ticks;
  if (bi.resource == sim::kCapBinding) {
    s.kind = AttrKind::kStreamCap;
    return s;
  }
  const sim::ResourceInfo info = cluster.resource_info(bi.resource);
  switch (info.role) {
    case sim::ResourceRole::kDisk:
    case sim::ResourceRole::kNicIn:
    case sim::ResourceRole::kNicOut:
      s.node = info.owner;
      if (degraded_at(cluster.speed_changes(), info.owner, bi.start_ticks)) {
        s.kind = AttrKind::kDegraded;
      } else if (info.role == sim::ResourceRole::kDisk) {
        s.kind = info.owner == server ? AttrKind::kSrcDisk : AttrKind::kOther;
      } else if (info.role == sim::ResourceRole::kNicOut) {
        s.kind = info.owner == server ? AttrKind::kSrcNic : AttrKind::kOther;
      } else {
        s.kind = AttrKind::kDstNic;
      }
      return s;
    case sim::ResourceRole::kRackUp:
      s.kind = AttrKind::kRackUplink;
      return s;
    case sim::ResourceRole::kRackDown:
      s.kind = AttrKind::kRackDownlink;
      return s;
  }
  return s;
}

/// Append the exact tiling of one read span [issue, end] to `slices`:
/// admission wait, positioning, then the transfer's classified binding
/// intervals. Defensive kOther gap fill keeps the tiling invariant even for
/// degenerate inputs (zero-byte transfers have no intervals at all).
void append_read_slices(std::vector<AttrSlice>& slices, const sim::ReadBreakdown& rb,
                        const sim::Cluster& cluster, dfs::NodeId server) {
  const std::size_t first = slices.size();
  // push_slice merges into the previous slice; the read's first slice must
  // not merge into the preceding read's last one.
  const auto push = [&](AttrKind kind, dfs::NodeId node, std::int64_t start,
                        std::int64_t end) {
    if (slices.size() == first) {
      if (end > start) slices.push_back({kind, node, start, end});
    } else {
      push_slice(slices, kind, node, start, end);
    }
  };
  push(AttrKind::kQueueWait, server, rb.issue_ticks, rb.admit_ticks);
  push(AttrKind::kSeek, server, rb.admit_ticks, rb.transfer_start_ticks);
  std::int64_t cursor = rb.transfer_start_ticks;
  for (const sim::BindingInterval& bi : rb.transfer) {
    if (bi.start_ticks > cursor)
      push(AttrKind::kOther, dfs::kInvalidNode, cursor, bi.start_ticks);
    const AttrSlice c = classify_interval(bi, cluster, server);
    push(c.kind, c.node, c.start_ticks, c.end_ticks);
    cursor = std::max(cursor, bi.end_ticks);
  }
  if (rb.end_ticks > cursor) push(AttrKind::kOther, dfs::kInvalidNode, cursor, rb.end_ticks);
}

std::int64_t compute_ticks_of(const runtime::Task& task) {
  return task.compute_time > 0 ? std::llround(task.compute_time * 1e9) : 0;
}

}  // namespace

void append_execution_spans(SpanLog& log, const runtime::ExecutionResult& exec,
                            const std::vector<runtime::Task>& tasks,
                            const sim::Cluster& cluster) {
  const auto& records = exec.trace.records();
  const bool have_breakdowns = exec.read_breakdowns.size() == records.size();

  // Group read records under their task (ReadRecord::task): task t's reads
  // are read_ids[read_begin[t], read_begin[t + 1]), ordered by issue time
  // (completion order equals issue order for the sequential per-task reads;
  // the sort makes it explicit).
  std::vector<std::uint32_t> read_begin(tasks.size() + 1, 0);
  for (const sim::ReadRecord& r : records)
    if (r.task < tasks.size()) ++read_begin[r.task + 1];
  for (std::size_t t = 0; t < tasks.size(); ++t) read_begin[t + 1] += read_begin[t];
  std::vector<std::uint32_t> read_ids(read_begin.back());
  {
    std::vector<std::uint32_t> next(read_begin.begin(), read_begin.end() - 1);
    for (std::uint32_t i = 0; i < records.size(); ++i)
      if (records[i].task < tasks.size()) read_ids[next[records[i].task]++] = i;
  }
  for (std::size_t t = 0; t < tasks.size(); ++t)
    std::stable_sort(read_ids.begin() + read_begin[t], read_ids.begin() + read_begin[t + 1],
                     [&](std::uint32_t a, std::uint32_t b) {
                       return records[a].issue_time < records[b].issue_time;
                     });

  // Task spans per process, in start order (completion order interleaves
  // processes; spans of one process are disjoint except under prefetch).
  std::vector<runtime::TaskSpan> ordered = exec.task_spans;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const runtime::TaskSpan& a, const runtime::TaskSpan& b) {
                     if (a.process != b.process) return a.process < b.process;
                     if (a.start != b.start) return a.start < b.start;
                     return a.end < b.end;
                   });

  const auto reads_of = [&](const runtime::TaskSpan& ts) {
    if (ts.task >= tasks.size()) return std::span<const std::uint32_t>();
    return std::span<const std::uint32_t>(read_ids.data() + read_begin[ts.task],
                                          read_begin[ts.task + 1] - read_begin[ts.task]);
  };

  // Size the log once from the known counts: at most one wait span per task
  // span, and per read at most queue, seek and trailing slices plus two per
  // binding interval (the interval and a gap before it), stored for the read
  // and again in its task's tiling with a gap before it; each task adds at
  // most two compute slices and its wait span one.
  std::size_t slice_bound = 3 * ordered.size();
  if (have_breakdowns) {
    for (const sim::ReadBreakdown& rb : exec.read_breakdowns)
      slice_bound += 2 * (3 + 2 * rb.transfer.size()) + 1;
  } else {
    slice_bound += 2 * records.size();
  }
  log.reserve(2 * ordered.size() + records.size(), slice_bound);

  // Per-task scratch, reused across tasks: the task's reads' slices back to
  // back (read k owns [read_ends[k-1], read_ends[k])), the task's tiling,
  // and where in the tiling each read's slices were pushed.
  std::vector<AttrSlice> read_buf;
  std::vector<std::size_t> read_ends;
  std::vector<AttrSlice> slices;
  std::vector<std::size_t> read_at;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const runtime::TaskSpan& ts = ordered[i];
    const dfs::NodeId node = static_cast<dfs::NodeId>(ts.process % cluster.node_count());
    const std::int64_t start = sim::to_ticks(ts.start);
    const std::int64_t end = sim::to_ticks(ts.end);

    // Gap to the previous task on this process: a wait span (BSP barrier
    // park or a dynamic-source retry window).
    if (i > 0 && ordered[i - 1].process == ts.process) {
      const std::int64_t prev_end = sim::to_ticks(ordered[i - 1].end);
      if (prev_end < start) {
        Span wait;
        wait.kind = SpanKind::kWait;
        wait.name = "exec.wave.wait";
        wait.process = ts.process;
        wait.node = node;
        wait.start_ticks = prev_end;
        wait.end_ticks = start;
        const AttrSlice barrier{AttrKind::kBarrier, dfs::kInvalidNode, prev_end, start};
        log.add(wait, {&barrier, 1});
      }
    }

    const auto reads = reads_of(ts);
    read_buf.clear();
    read_ends.clear();
    if (have_breakdowns)
      for (std::uint32_t rec_idx : reads) {
        append_read_slices(read_buf, exec.read_breakdowns[rec_idx], cluster,
                           records[rec_idx].serving_node);
        read_ends.push_back(read_buf.size());
      }
    const auto read_slices = [&](std::size_t k) {
      const std::size_t begin = k == 0 ? 0 : read_ends[k - 1];
      return std::span<const AttrSlice>(read_buf.data() + begin, read_ends[k] - begin);
    };

    // Assemble the task's exact tiling from its reads' slices; abandoned
    // (single kOther slice) when reads overlap the span non-sequentially,
    // which is exactly the prefetch case.
    slices.clear();
    read_at.clear();
    std::int64_t cursor = start;
    bool exact = true;
    for (std::size_t k = 0; k < reads.size(); ++k) {
      const std::uint32_t rec_idx = reads[k];
      const sim::ReadRecord& rec = records[rec_idx];
      const std::int64_t r_start = have_breakdowns
                                       ? exec.read_breakdowns[rec_idx].issue_ticks
                                       : sim::to_ticks(rec.issue_time);
      const std::int64_t r_end = have_breakdowns ? exec.read_breakdowns[rec_idx].end_ticks
                                                 : sim::to_ticks(rec.end_time);
      if (r_start < cursor || r_end > end) {
        exact = false;
        break;
      }
      if (r_start > cursor)
        push_slice(slices, AttrKind::kOther, dfs::kInvalidNode, cursor, r_start);
      read_at.push_back(slices.size());
      if (have_breakdowns) {
        for (const AttrSlice& s : read_slices(k))
          push_slice(slices, s.kind, s.node, s.start_ticks, s.end_ticks);
      } else {
        push_slice(slices, AttrKind::kOther, rec.serving_node, r_start, r_end);
      }
      cursor = r_end;
    }
    if (exact && cursor <= end) {
      const std::int64_t residual = end - cursor;
      const std::int64_t compute =
          ts.task < tasks.size() ? compute_ticks_of(tasks[ts.task]) : 0;
      if (residual > 0) {
        // The residual after the last read is the compute phase; anything
        // beyond the declared compute time (± a rounding tick) is a
        // scheduling wait (the prefetch cycle join).
        if (residual <= compute + 1) {
          push_slice(slices, AttrKind::kCompute, dfs::kInvalidNode, cursor, end);
        } else {
          push_slice(slices, AttrKind::kOther, dfs::kInvalidNode, cursor, end - compute);
          push_slice(slices, AttrKind::kCompute, dfs::kInvalidNode, end - compute, end);
        }
      }
    } else {
      slices.clear();
      if (end > start) slices.push_back({AttrKind::kOther, dfs::kInvalidNode, start, end});
    }

    Span task_span;
    task_span.kind = SpanKind::kTask;
    task_span.name = "exec.task.run";
    task_span.process = ts.process;
    task_span.task = ts.task;
    task_span.node = node;
    task_span.start_ticks = start;
    task_span.end_ticks = end;
    const std::uint32_t task_id = log.add(task_span, slices);
    // A read's slices usually reappear verbatim in its task's tiling (none
    // merged with a neighbour's); the read span then shares them.
    const auto shared_slices = [&](std::size_t k) {
      const auto own = read_slices(k);
      const auto tiling = log.breakdown(log.spans()[task_id]);
      if (!exact || read_at[k] + own.size() > tiling.size()) return own;
      const auto at = tiling.subspan(read_at[k], own.size());
      return std::equal(own.begin(), own.end(), at.begin()) ? at : own;
    };

    for (std::size_t k = 0; k < reads.size(); ++k) {
      const sim::ReadRecord& rec = records[reads[k]];
      Span read;
      read.parent = task_id;
      read.kind = SpanKind::kRead;
      read.name = "exec.read.serve";
      read.process = rec.process;
      read.task = rec.task;
      read.node = rec.reader_node;
      read.server = rec.serving_node;
      read.chunk = rec.chunk;
      read.bytes = rec.bytes;
      if (have_breakdowns) {
        const sim::ReadBreakdown& rb = exec.read_breakdowns[reads[k]];
        read.start_ticks = rb.issue_ticks;
        read.end_ticks = rb.end_ticks;
        log.add(read, shared_slices(k));
      } else {
        read.start_ticks = sim::to_ticks(rec.issue_time);
        read.end_ticks = sim::to_ticks(rec.end_time);
        log.add(read);
      }
    }
  }
}

void append_service_spans(SpanLog& log, const std::vector<core::JobStatus>& statuses) {
  for (const core::JobStatus& s : statuses) {
    if (s.state != core::JobState::kPlanned && s.state != core::JobState::kCompleted)
      continue;
    const std::int64_t arrival = sim::to_ticks(s.arrival);
    const std::int64_t planned = sim::to_ticks(s.planned_at);
    Span queue;
    queue.kind = SpanKind::kQueue;
    queue.name = "svc.job.queue";
    queue.process = static_cast<std::uint32_t>(s.tenant);
    queue.task = static_cast<std::uint32_t>(s.id);
    queue.start_ticks = arrival;
    queue.end_ticks = planned;
    const AttrSlice wait{AttrKind::kQueueWait, dfs::kInvalidNode, arrival, planned};
    log.add(queue, planned > arrival ? std::span<const AttrSlice>(&wait, 1)
                                     : std::span<const AttrSlice>());

    Span plan;
    plan.kind = SpanKind::kPlan;
    plan.name = "svc.job.plan";
    plan.process = static_cast<std::uint32_t>(s.tenant);
    plan.task = static_cast<std::uint32_t>(s.id);
    plan.start_ticks = planned;
    plan.end_ticks = planned;
    log.add(plan);
  }
}

}  // namespace opass::obs
