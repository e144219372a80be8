#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace opass {
namespace {

TEST(ThreadPool, SingleThreadPoolSpawnsNothingAndRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> seen;
  pool.parallel_chunks(5, [&](std::size_t c) { seen.push_back(c); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ThreadCountClampsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPool, ZeroChunksIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_chunks(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(pool.batches(), 0u);
  EXPECT_EQ(pool.chunks_executed(), 0u);
}

TEST(ThreadPool, ZeroCountForChunksNeverCallsFn) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for_chunks(0, 1, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, EveryChunkRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_chunks(64, [&](std::size_t c) { hits[c].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.batches(), 1u);
  EXPECT_EQ(pool.chunks_executed(), 64u);
}

TEST(ThreadPool, ParallelForPartitionsTheRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for_chunks(100, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, MinPerChunkLimitsTheSplit) {
  ThreadPool pool(8);
  // 10 items at >= 6 per chunk: ceil(10/6) = 2 chunks, not 8.
  std::vector<std::pair<std::size_t, std::size_t>> ranges(8, {0, 0});
  std::atomic<int> chunks{0};
  pool.parallel_for_chunks(10, 6, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
    ranges[chunk] = {begin, end};
    chunks.fetch_add(1);
  });
  EXPECT_EQ(chunks.load(), 2);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 5}));
  EXPECT_EQ(ranges[1], (std::pair<std::size_t, std::size_t>{5, 10}));
}

TEST(ThreadPool, ChunkBoundariesAreAFunctionOfShapeNotTiming) {
  // Run the same split twice; the recorded boundaries must be identical.
  ThreadPool pool(4);
  auto record = [&] {
    std::vector<std::pair<std::size_t, std::size_t>> ranges(4, {0, 0});
    pool.parallel_for_chunks(17, 1, [&](std::size_t b, std::size_t e, std::size_t c) {
      ranges[c] = {b, e};
    });
    return ranges;
  };
  EXPECT_EQ(record(), record());
}

TEST(ThreadPool, LowestFailingChunkWinsTheRethrow) {
  ThreadPool pool(4);
  // Chunks 2, 5, 11 throw; the barrier must rethrow chunk 2's exception no
  // matter which lane hit its error first in real time.
  try {
    pool.parallel_chunks(16, [&](std::size_t c) {
      if (c == 2 || c == 5 || c == 11)
        throw std::runtime_error("chunk " + std::to_string(c));
    });
    FAIL() << "expected the batch to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");
  }
}

TEST(ThreadPool, PoolIsUsableAfterAnException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_chunks(8, [](std::size_t c) {
        if (c == 3) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  std::atomic<int> ran{0};
  pool.parallel_chunks(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, InlineExceptionAlsoPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_chunks(
                   3, [](std::size_t c) {
                     if (c == 1) throw std::runtime_error("inline");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, StatsAccumulateAcrossBatches) {
  ThreadPool pool(2);
  pool.parallel_chunks(4, [](std::size_t) {});
  pool.parallel_chunks(6, [](std::size_t) {});
  EXPECT_EQ(pool.batches(), 2u);
  EXPECT_EQ(pool.chunks_executed(), 10u);
  // Static assignment: lane 0 takes the even chunks, lane 1 the odd ones.
  EXPECT_EQ(pool.lane_chunks(0), 5u);
  EXPECT_EQ(pool.lane_chunks(1), 5u);
}

TEST(ThreadPool, ManyBatchesSurviveBackToBack) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int b = 0; b < 200; ++b)
    pool.parallel_chunks(8, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1600u);
  EXPECT_EQ(pool.chunks_executed(), 1600u);
}

}  // namespace
}  // namespace opass
