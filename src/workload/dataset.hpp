// Dataset construction helpers for the paper's experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "runtime/task.hpp"

namespace opass::workload {

/// Store one dataset of `chunk_count` full-size chunks using the given
/// placement policy. Returns the file id.
dfs::FileId store_chunked_dataset(dfs::NameNode& nn, std::uint32_t chunk_count,
                                  dfs::PlacementPolicy& policy, Rng& rng);

/// The paper's single-data micro-benchmark dataset: ~`chunks_per_process`
/// full-size chunks per process on an m-node cluster ("approximately ten
/// chunk files for every process"). Returns one single-input task per chunk.
std::vector<runtime::Task> make_single_data_workload(dfs::NameNode& nn,
                                                     std::uint32_t chunk_count,
                                                     dfs::PlacementPolicy& policy, Rng& rng,
                                                     Seconds compute_time = 0);

/// Skewed hot-file popularity (the failure/churn scenarios' read mix).
struct SkewedWorkloadParams {
  std::uint32_t file_count = 8;       ///< distinct datasets
  std::uint32_t chunks_per_file = 16; ///< full-size chunks per dataset
  std::uint32_t task_count = 256;     ///< total read tasks to emit
  /// Zipf popularity exponent: file i carries weight 1/(i+1)^s, so s = 0 is
  /// uniform and s >= 1 concentrates most reads on the first few files.
  double zipf_s = 1.0;
  Seconds compute_time = 0;
};

/// Store `file_count` chunked datasets and emit `task_count` single-input
/// tasks whose per-file counts follow a Zipf(s) popularity law (largest-
/// remainder apportionment, ties to the smaller file index — deterministic;
/// no RNG beyond placement). Task k of file i reads that file's chunk
/// (k mod chunks_per_file), so hot files turn into hot chunks — the access
/// pattern that makes crashes and stragglers on replica-heavy nodes hurt.
std::vector<runtime::Task> make_skewed_workload(dfs::NameNode& nn,
                                                const SkewedWorkloadParams& params,
                                                dfs::PlacementPolicy& policy, Rng& rng);

}  // namespace opass::workload
