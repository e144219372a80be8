// Golden-plan suite for Algorithm 1 (paper Section IV-C).
//
// Pins the complete multi-data plan — every process's task list in order,
// matched bytes, total bytes and the reassignment count — for three seeded
// layouts, as FNV-1a digests captured from the dense-table implementation.
// Algorithm 1's output depends on the exact proposal order, so any change to
// the preference lists, their tie-breaks or the deficient-process deque shows
// up here; a pure representation change (the sparse co-location index) must
// keep every digest stable.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "opass/multi_data.hpp"
#include "workload/multi_input.hpp"

namespace opass::core {
namespace {

/// FNV-1a 64-bit over a byte string.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string digest(const MultiDataPlan& plan) {
  std::string all;
  for (const auto& list : plan.assignment) {
    for (runtime::TaskId t : list) all += std::to_string(t) + ",";
    all += "\n";
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "matched=%" PRIu64 " total=%" PRIu64 " reassignments=%u plan=%016" PRIx64,
                static_cast<std::uint64_t>(plan.matched_bytes),
                static_cast<std::uint64_t>(plan.total_bytes), plan.reassignments, fnv1a(all));
  return buf;
}

/// The multi scenario's layout shape: random placement (r=3 by default) of
/// the three per-task input files, `processes_per_node` processes per node.
std::string run_multi(std::uint32_t nodes, std::uint32_t task_count,
                      std::uint32_t processes_per_node, std::uint64_t seed,
                      std::uint32_t replication = 3) {
  dfs::NameNode nn(dfs::Topology::single_rack(nodes), replication);
  dfs::RandomPlacement policy;
  Rng rng(seed);
  const auto tasks = workload::make_multi_input_workload(nn, task_count, policy, rng);
  const auto placement = one_process_per_node(nn, nodes * processes_per_node);
  return digest(assign_multi_data(nn, tasks, placement));
}

TEST(MultiDataRegression, Multi64Nodes2560Tasks) {
  EXPECT_EQ(run_multi(64, 2560, 1, 42),
            "matched=88740986880 total=161061273600 reassignments=4 plan=efa001d83ed756c5");
}

TEST(MultiDataRegression, Multi256Nodes10240Tasks) {
  EXPECT_EQ(run_multi(256, 10240, 1, 42),
            "matched=321430487040 total=644245094400 reassignments=2 plan=5088da287e7ccd4b");
}

TEST(MultiDataRegression, Multi128NodesTwoProcessesPerNode) {
  EXPECT_EQ(run_multi(128, 5120, 2, 7),
            "matched=166629212160 total=322122547200 reassignments=2 plan=aecd240b6f9f686d");
}

TEST(MultiDataRegression, Multi96NodesSingleReplicaThreeProcessesPerNode) {
  // r=1 leaves most (process, task) pairs cold; 1000 tasks over 288
  // processes gives uneven quotas.
  EXPECT_EQ(run_multi(96, 1000, 3, 11, 1),
            "matched=29433528320 total=62914560000 reassignments=0 plan=14e3bf02eddc9379");
}

}  // namespace
}  // namespace opass::core
