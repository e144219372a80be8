#include "workload/paraview.hpp"

#include "common/require.hpp"

namespace opass::workload {

ParaViewWorkload make_paraview_workload(dfs::NameNode& nn, dfs::PlacementPolicy& policy,
                                        Rng& rng, const ParaViewSpec& spec) {
  OPASS_REQUIRE(spec.dataset_count > 0, "series must contain datasets");
  OPASS_REQUIRE(spec.datasets_per_step > 0 &&
                    spec.datasets_per_step <= spec.dataset_count,
                "datasets per step must be in [1, dataset_count]");
  OPASS_REQUIRE(spec.bytes_per_dataset > 0 && spec.bytes_per_dataset <= nn.chunk_size(),
                "each dataset must fit in one chunk (VTK XML subfiles are sub-chunk)");

  ParaViewWorkload w;
  w.series.reserve(spec.dataset_count);
  w.tasks.reserve(spec.dataset_count);
  for (std::uint32_t i = 0; i < spec.dataset_count; ++i) {
    const dfs::FileId fid = nn.create_file(spec.bytes_per_dataset, policy, rng);
    w.series.push_back(fid);
    const auto& chunks = nn.file(fid).chunks;
    OPASS_CHECK(chunks.size() == 1, "dataset should be a single chunk");
    runtime::Task t;
    t.id = i;
    t.inputs = {chunks[0]};
    t.compute_time = spec.render_time_per_task;
    w.tasks.push_back(std::move(t));
  }

  // Rendering steps cover the series in order, `datasets_per_step` at a time
  // (the paper renders 64-dataset time steps until the 640-op trace ends).
  for (std::uint32_t start = 0; start < spec.dataset_count; start += spec.datasets_per_step) {
    std::vector<runtime::TaskId> step;
    for (std::uint32_t i = start;
         i < std::min(start + spec.datasets_per_step, spec.dataset_count); ++i)
      step.push_back(i);
    w.steps.push_back(std::move(step));
  }
  return w;
}

}  // namespace opass::workload
