#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace opass {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
      .count();
}

constexpr std::size_t kNoErrorChunk = static_cast<std::size_t>(-1);

}  // namespace

ThreadPool::ThreadPool(std::uint32_t threads)
    : thread_count_(std::max<std::uint32_t>(threads, 1)),
      lane_error_(thread_count_),
      lane_error_chunk_(thread_count_, kNoErrorChunk),
      lane_stats_(thread_count_) {
  workers_.reserve(thread_count_ - 1);
  for (std::uint32_t lane = 1; lane < thread_count_; ++lane)
    workers_.emplace_back([this, lane] { worker_main(lane); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::note_inline_batch(std::uint64_t chunks) {
  batches_ += 1;
  chunks_executed_ += chunks;
  lane_stats_[0].chunks += chunks;
}

void ThreadPool::run_lane_chunks(std::size_t lane, std::uint64_t batch) {
  // Static assignment: lane L runs chunks L, L+W, L+2W, ... in ascending
  // order, so the first failure a lane records is its lowest failing chunk.
  (void)batch;
  const auto started = std::chrono::steady_clock::now();
  auto& stats = lane_stats_[lane];
  for (std::size_t chunk = lane; chunk < batch_chunks_; chunk += thread_count_) {
    if (lane_error_[lane]) break;  // drain nothing further on this lane
    try {
      (*batch_fn_)(chunk);
    } catch (...) {
      lane_error_[lane] = std::current_exception();
      lane_error_chunk_[lane] = chunk;
      break;
    }
    stats.chunks += 1;
  }
  stats.busy_ms += elapsed_ms(started);
}

void ThreadPool::worker_main(std::size_t lane) {
  std::uint64_t seen_batch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || batch_seq_ != seen_batch; });
      if (shutdown_) return;
      seen_batch = batch_seq_;
    }
    run_lane_chunks(lane, seen_batch);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--lanes_pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_chunks(std::size_t chunk_count,
                                 const std::function<void(std::size_t)>& chunk_fn) {
  if (chunk_count == 0) return;
  OPASS_CHECK(!in_batch_, "ThreadPool: nested parallel_chunks on the same pool");
  if (thread_count_ == 1 || chunk_count == 1) {
    // Degenerate batch: run inline on the caller, no synchronization.
    const auto started = std::chrono::steady_clock::now();
    for (std::size_t chunk = 0; chunk < chunk_count; ++chunk) chunk_fn(chunk);
    lane_stats_[0].busy_ms += elapsed_ms(started);
    note_inline_batch(chunk_count);
    return;
  }

  in_batch_ = true;
  std::fill(lane_error_.begin(), lane_error_.end(), nullptr);
  std::fill(lane_error_chunk_.begin(), lane_error_chunk_.end(), kNoErrorChunk);
  {
    std::unique_lock<std::mutex> lock(mu_);
    batch_fn_ = &chunk_fn;
    batch_chunks_ = chunk_count;
    lanes_pending_ = thread_count_ - 1;
    ++batch_seq_;
  }
  work_cv_.notify_all();

  run_lane_chunks(0, batch_seq_);

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return lanes_pending_ == 0; });
    batch_fn_ = nullptr;
  }
  in_batch_ = false;
  batches_ += 1;
  chunks_executed_ += chunk_count;

  // Deterministic rethrow: the pending exception with the lowest chunk index
  // wins, no matter which lane finished first in real time.
  std::size_t best_lane = kNoErrorChunk;
  for (std::size_t lane = 0; lane < lane_error_.size(); ++lane) {
    if (!lane_error_[lane]) continue;
    if (best_lane == kNoErrorChunk || lane_error_chunk_[lane] < lane_error_chunk_[best_lane])
      best_lane = lane;
  }
  if (best_lane != kNoErrorChunk) std::rethrow_exception(lane_error_[best_lane]);
}

double ThreadPool::lane_busy_ms(std::uint32_t lane) const {
  OPASS_CHECK(lane < thread_count_, "ThreadPool: lane out of range");
  return lane_stats_[lane].busy_ms;
}

std::uint64_t ThreadPool::lane_chunks(std::uint32_t lane) const {
  OPASS_CHECK(lane < thread_count_, "ThreadPool: lane out of range");
  return lane_stats_[lane].chunks;
}

}  // namespace opass
