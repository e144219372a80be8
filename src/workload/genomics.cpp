#include "workload/genomics.hpp"

#include "common/require.hpp"
#include "workload/dataset.hpp"

namespace opass::workload {

std::vector<runtime::Task> make_genomics_workload(dfs::NameNode& nn,
                                                  dfs::PlacementPolicy& policy, Rng& rng,
                                                  const GenomicsSpec& spec) {
  OPASS_REQUIRE(spec.partition_count > 0, "database needs partitions");
  OPASS_REQUIRE(spec.mean_compute_time >= 0, "compute time must be non-negative");
  OPASS_REQUIRE(spec.pareto_shape > 1.0, "Pareto shape must exceed 1 for a finite mean");

  const dfs::FileId fid = store_chunked_dataset(nn, spec.partition_count, policy, rng);
  auto tasks = runtime::single_input_tasks(nn, {fid});

  // Pareto with mean = xm * alpha / (alpha - 1); solve for xm given the
  // requested mean.
  const double alpha = spec.pareto_shape;
  const double xm = spec.mean_compute_time * (alpha - 1.0) / alpha;
  for (auto& t : tasks) {
    t.compute_time = spec.mean_compute_time > 0 ? rng.pareto(xm, alpha) : 0.0;
  }
  return tasks;
}

}  // namespace opass::workload
