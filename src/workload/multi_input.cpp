#include "workload/multi_input.hpp"

#include "common/require.hpp"

namespace opass::workload {

std::vector<runtime::Task> make_multi_input_workload(dfs::NameNode& nn,
                                                     std::uint32_t task_count,
                                                     dfs::PlacementPolicy& policy, Rng& rng,
                                                     const MultiInputSpec& spec) {
  OPASS_REQUIRE(task_count > 0, "need at least one task");
  OPASS_REQUIRE(!spec.input_sizes.empty(), "tasks need at least one input");
  for (Bytes s : spec.input_sizes)
    OPASS_REQUIRE(s > 0 && s <= nn.chunk_size(),
                  "each multi-input file must fit in one chunk");

  std::vector<runtime::Task> tasks(task_count);
  for (std::uint32_t i = 0; i < task_count; ++i) {
    tasks[i].id = i;
    tasks[i].compute_time = spec.compute_time;
  }
  for (std::size_t k = 0; k < spec.input_sizes.size(); ++k) {
    for (std::uint32_t i = 0; i < task_count; ++i) {
      const dfs::FileId fid = nn.create_file(spec.input_sizes[k], policy, rng);
      const auto& chunks = nn.file(fid).chunks;
      OPASS_CHECK(chunks.size() == 1, "multi-input file should be a single chunk");
      tasks[i].inputs.push_back(chunks[0]);
    }
  }
  return tasks;
}

}  // namespace opass::workload
