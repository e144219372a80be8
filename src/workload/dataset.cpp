#include "workload/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/require.hpp"

namespace opass::workload {

dfs::FileId store_chunked_dataset(dfs::NameNode& nn, std::uint32_t chunk_count,
                                  dfs::PlacementPolicy& policy, Rng& rng) {
  OPASS_REQUIRE(chunk_count > 0, "dataset needs at least one chunk");
  return nn.create_file(static_cast<Bytes>(chunk_count) * nn.chunk_size(), policy, rng);
}

std::vector<runtime::Task> make_single_data_workload(dfs::NameNode& nn,
                                                     std::uint32_t chunk_count,
                                                     dfs::PlacementPolicy& policy, Rng& rng,
                                                     Seconds compute_time) {
  const dfs::FileId fid = store_chunked_dataset(nn, chunk_count, policy, rng);
  return runtime::single_input_tasks(nn, {fid}, compute_time);
}

std::vector<runtime::Task> make_skewed_workload(dfs::NameNode& nn,
                                                const SkewedWorkloadParams& params,
                                                dfs::PlacementPolicy& policy, Rng& rng) {
  OPASS_REQUIRE(params.file_count > 0, "skewed workload needs at least one file");
  OPASS_REQUIRE(params.chunks_per_file > 0, "skewed workload needs chunks per file");
  OPASS_REQUIRE(params.task_count > 0, "skewed workload needs at least one task");
  OPASS_REQUIRE(params.zipf_s >= 0, "zipf exponent must be non-negative");

  std::vector<dfs::FileId> files;
  files.reserve(params.file_count);
  for (std::uint32_t i = 0; i < params.file_count; ++i)
    files.push_back(store_chunked_dataset(nn, params.chunks_per_file, policy, rng));

  // Largest-remainder apportionment of task_count over Zipf weights.
  std::vector<double> weight(params.file_count);
  double total = 0;
  for (std::uint32_t i = 0; i < params.file_count; ++i) {
    weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), params.zipf_s);
    total += weight[i];
  }
  std::vector<std::uint32_t> tasks_for(params.file_count);
  std::vector<std::pair<double, std::uint32_t>> remainder(params.file_count);
  std::uint32_t assigned = 0;
  for (std::uint32_t i = 0; i < params.file_count; ++i) {
    const double quota = params.task_count * weight[i] / total;
    tasks_for[i] = static_cast<std::uint32_t>(quota);
    assigned += tasks_for[i];
    remainder[i] = {quota - static_cast<double>(tasks_for[i]), i};
  }
  std::sort(remainder.begin(), remainder.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::uint32_t i = 0; assigned < params.task_count; ++i, ++assigned)
    ++tasks_for[remainder[i % params.file_count].second];

  std::vector<runtime::Task> tasks;
  tasks.reserve(params.task_count);
  for (std::uint32_t i = 0; i < params.file_count; ++i) {
    const auto& chunks = nn.file(files[i]).chunks;
    for (std::uint32_t k = 0; k < tasks_for[i]; ++k) {
      runtime::Task t;
      t.id = static_cast<runtime::TaskId>(tasks.size());
      t.inputs = {chunks[k % params.chunks_per_file]};
      t.compute_time = params.compute_time;
      tasks.push_back(std::move(t));
    }
  }
  OPASS_CHECK(tasks.size() == params.task_count, "skewed apportionment lost tasks");
  return tasks;
}

}  // namespace opass::workload
