// Fixed-size deterministic worker pool — the project's single home for raw
// threading primitives (enforced by the `no-raw-thread` lint rule: everything
// outside common/thread_pool and common/thread_annotations must express
// concurrency through this vocabulary).
//
// Determinism contract (DESIGN.md §12 "Concurrency model"): the pool is
// work-stealing-free. A batch of `chunk_count` chunks is assigned statically —
// chunk i runs on lane (i % thread_count), the calling thread serving lane 0 —
// so the partition of work onto lanes is a pure function of (chunk_count,
// thread_count), never of scheduling. Chunks may *execute* in any real-time
// order across lanes; everything order-sensitive (reductions, commits into
// shared structures) therefore happens either inside a chunk on
// chunk-disjoint state, or after the batch barrier in ascending chunk index
// order, so results are byte-identical to a serial run — and identical for
// every thread count.
//
// The shapes follow the classic thread-farm design (cf. the cs110
// thread-pool/farm exemplars and Odinfs' pinned delegation threads in
// PAPERS.md): long-lived workers parked on a condition variable, work pushed
// as batches, a barrier before results are consumed. Workers never outlive
// the pool; the destructor joins.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/require.hpp"

namespace opass {

/// Fixed-size worker pool with deterministic (static, stealing-free) chunk
/// assignment. `threads` counts the calling thread: ThreadPool(4) spawns 3
/// workers and lane 0 runs on the caller, so a pool of 1 spawns nothing and
/// every batch degenerates to an inline serial loop.
class ThreadPool {
 public:
  explicit ThreadPool(std::uint32_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes, including the calling thread. Always >= 1.
  std::uint32_t thread_count() const { return thread_count_; }

  /// Run `chunk_fn(chunk)` for every chunk in [0, chunk_count). Chunk i runs
  /// on lane i % thread_count(); the caller participates as lane 0 and the
  /// call returns only after every chunk finished (full barrier, so writes
  /// made by chunks happen-before the return). If chunks throw, the batch
  /// still drains the non-throwing lanes' chunks, and the pending exception
  /// with the lowest chunk index is rethrown — deterministic regardless of
  /// which lane hit its error first in real time.
  ///
  /// Must be called from the owning thread only, and never from inside a
  /// chunk of the same pool (no nesting — a lane waiting on its own pool
  /// would deadlock).
  void parallel_chunks(std::size_t chunk_count,
                       const std::function<void(std::size_t)>& chunk_fn);

  /// Split [0, count) into at most thread_count() contiguous ranges of at
  /// least `min_per_chunk` items (the last range takes the remainder) and
  /// run `fn(begin, end, chunk)` for each. The split is a pure function of
  /// (count, min_per_chunk, thread_count), so chunk boundaries — and
  /// therefore any per-chunk results — are reproducible.
  template <typename F>
  void parallel_for_chunks(std::size_t count, std::size_t min_per_chunk, F&& fn) {
    const std::size_t chunks = chunk_count_for(count, min_per_chunk);
    if (chunks <= 1) {
      if (count > 0) {
        fn(std::size_t{0}, count, std::size_t{0});
        note_inline_batch(1);
      }
      return;
    }
    const std::size_t per = count / chunks;
    const std::size_t extra = count % chunks;
    parallel_chunks(chunks, [&](std::size_t chunk) {
      // Ranges [begin, end): the first `extra` chunks take one extra item.
      const std::size_t begin = chunk * per + std::min(chunk, extra);
      const std::size_t end = begin + per + (chunk < extra ? 1 : 0);
      fn(begin, end, chunk);
    });
  }

  // --- observability (read when the pool is idle) ----------------------------

  /// Batches dispatched (every parallel_chunks / inline degenerate run).
  std::uint64_t batches() const { return batches_; }

  /// Chunks executed across all batches.
  std::uint64_t chunks_executed() const { return chunks_executed_; }

  /// Cumulative wall-clock milliseconds lane `lane` spent inside chunks.
  /// Lane 0 is the calling thread. Host timing — nondeterministic; obs
  /// collectors must tag it Determinism::kWallClock.
  double lane_busy_ms(std::uint32_t lane) const;

  /// Chunks executed by lane `lane`. Deterministic for a fixed thread count
  /// (static assignment), but *not* across thread counts.
  std::uint64_t lane_chunks(std::uint32_t lane) const;

 private:
  struct LaneStats {
    double busy_ms = 0;
    std::uint64_t chunks = 0;
  };

  std::size_t chunk_count_for(std::size_t count, std::size_t min_per_chunk) const {
    if (count == 0) return 0;
    const std::size_t cap = std::max<std::size_t>(min_per_chunk, 1);
    const std::size_t by_grain = (count + cap - 1) / cap;
    return std::min<std::size_t>(thread_count_, std::max<std::size_t>(by_grain, 1));
  }

  void note_inline_batch(std::uint64_t chunks);
  void run_lane_chunks(std::size_t lane, std::uint64_t batch);
  void worker_main(std::size_t lane);

  const std::uint32_t thread_count_;
  std::vector<std::thread> workers_;  // lanes 1..thread_count-1

  // Batch hand-off state. The mutex orders batch publication against worker
  // pickup and completion against the caller's return (the barrier).
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t batch_seq_ = 0;          // bumped to publish a batch
  std::size_t batch_chunks_ = 0;         // chunk count of the current batch
  const std::function<void(std::size_t)>* batch_fn_ = nullptr;
  std::uint32_t lanes_pending_ = 0;      // workers still running the batch
  bool shutdown_ = false;
  bool in_batch_ = false;  // nesting guard (owner thread only)

  // Per-lane first-failure slots, merged after the barrier: rethrow the
  // lowest chunk index. Sized once; written only by the owning lane during a
  // batch, read by the caller after the barrier.
  std::vector<std::exception_ptr> lane_error_;
  std::vector<std::size_t> lane_error_chunk_;

  std::vector<LaneStats> lane_stats_;
  std::uint64_t batches_ = 0;
  std::uint64_t chunks_executed_ = 0;
};

}  // namespace opass
