#include "opass/weighted_single_data.hpp"

#include <gtest/gtest.h>

#include "opass/assignment_stats.hpp"
#include "opass/single_data.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

/// One single-chunk file per task with the given sizes.
std::vector<runtime::Task> heterogeneous_tasks(dfs::NameNode& nn,
                                               const std::vector<Bytes>& sizes,
                                               dfs::PlacementPolicy& policy, Rng& rng) {
  std::vector<runtime::Task> tasks;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto fid = nn.create_file(sizes[i], policy, rng);
    runtime::Task t;
    t.id = static_cast<runtime::TaskId>(i);
    t.inputs = {nn.file(fid).chunks[0]};
    tasks.push_back(std::move(t));
  }
  return tasks;
}

TEST(WeightedSingleData, UniformSizesBehaveLikeUnitAssigner) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  const auto tasks = workload::make_single_data_workload(nn, 40, policy, rng);
  const auto placement = one_process_per_node(nn);

  Rng r1(2), r2(2);
  const auto w = assign_single_data_weighted(nn, tasks, placement, r1);
  const auto u = assign_single_data(nn, tasks, placement, r2);
  EXPECT_TRUE(runtime::is_partition(w.assignment, 40));
  // Same total locality on uniform sizes (both compute a max matching).
  const auto ws = evaluate_assignment(nn, tasks, w.assignment, placement);
  const auto us = evaluate_assignment(nn, tasks, u.assignment, placement);
  EXPECT_EQ(ws.local_bytes, us.local_bytes);
}

TEST(WeightedSingleData, BalancesBytesNotCounts) {
  // 4 nodes, r = 1 for full control: two huge files on node 0, six small
  // spread elsewhere. Byte-balancing must not give node 0's process both
  // huge files plus smalls up to equal *count*.
  dfs::NameNode nn(dfs::Topology::single_rack(4), 1, 64 * kMiB);
  class FixedPlacement : public dfs::PlacementPolicy {
   public:
    std::vector<dfs::NodeId> place(const dfs::Topology&, dfs::NodeId, std::uint32_t,
                                   Rng&) override {
      static const dfs::NodeId seq[] = {0, 0, 1, 1, 2, 2, 3, 3};
      return {seq[i_++ % 8]};
    }
    std::string name() const override { return "fixed"; }
    int i_ = 0;
  } policy;
  Rng rng(3);
  const std::vector<Bytes> sizes{60 * kMiB, 60 * kMiB, 10 * kMiB, 10 * kMiB,
                                 10 * kMiB, 10 * kMiB, 10 * kMiB, 10 * kMiB};
  const auto tasks = heterogeneous_tasks(nn, sizes, policy, rng);
  const auto placement = one_process_per_node(nn);

  const auto plan = assign_single_data_weighted(nn, tasks, placement, rng);
  EXPECT_TRUE(runtime::is_partition(plan.assignment,
                                    static_cast<std::uint32_t>(tasks.size())));
  // Total 180 MiB over 4 processes => quota 45 MiB. p0 cannot take both
  // 60 MiB files (a count-equal split could); the guarantee is
  // quota + one-file overload, so max load stays below 105 MiB and well
  // below the 120 MiB a count-based split would allow on p0.
  EXPECT_LT(plan.max_process_bytes, 120 * kMiB);
  EXPECT_LE(plan.max_process_bytes, 60 * kMiB + 20 * kMiB);
}

TEST(WeightedSingleData, ByteSpreadBeatsCountAssignerOnSkewedSizes) {
  // Random heterogeneous sizes: the weighted plan's byte spread must not
  // exceed the unit assigner's.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    dfs::NameNode nn(dfs::Topology::single_rack(8), 3, 64 * kMiB);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    std::vector<Bytes> sizes;
    for (int i = 0; i < 48; ++i) sizes.push_back((8 + rng.uniform(56)) * kMiB);
    const auto tasks = heterogeneous_tasks(nn, sizes, policy, rng);
    const auto placement = one_process_per_node(nn);

    Rng r1(seed + 50), r2(seed + 50);
    const auto w = assign_single_data_weighted(nn, tasks, placement, r1);
    const auto u = assign_single_data(nn, tasks, placement, r2);

    auto byte_spread = [&](const runtime::Assignment& a) {
      Bytes hi = 0, lo = UINT64_MAX;
      for (const auto& list : a) {
        Bytes b = 0;
        for (auto t : list) b += nn.chunk(tasks[t].inputs[0]).size;
        hi = std::max(hi, b);
        lo = std::min(lo, b);
      }
      return hi - lo;
    };
    EXPECT_LE(byte_spread(w.assignment), byte_spread(u.assignment)) << "seed " << seed;
  }
}

TEST(WeightedSingleData, LocalityStaysHighOnRandomLayouts) {
  dfs::NameNode nn(dfs::Topology::single_rack(16), 3, 64 * kMiB);
  dfs::RandomPlacement policy;
  Rng rng(9);
  std::vector<Bytes> sizes;
  for (int i = 0; i < 160; ++i) sizes.push_back((16 + rng.uniform(48)) * kMiB);
  const auto tasks = heterogeneous_tasks(nn, sizes, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto plan = assign_single_data_weighted(nn, tasks, placement, rng);
  EXPECT_GT(plan.local_fraction(), 0.9);
  EXPECT_EQ(plan.flow_assigned + plan.fill_assigned, 160u);
}

TEST(WeightedSingleData, StatsConsistentWithEvaluate) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, 64 * kMiB);
  dfs::RandomPlacement policy;
  Rng rng(11);
  const auto tasks = workload::make_single_data_workload(nn, 32, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto plan = assign_single_data_weighted(nn, tasks, placement, rng);
  const auto stats = evaluate_assignment(nn, tasks, plan.assignment, placement);
  EXPECT_EQ(stats.total_bytes, plan.total_bytes);
  EXPECT_GE(stats.local_bytes, plan.local_bytes);  // fill may add lucky locality
}

TEST(WeightedSingleData, EmptyTaskListIsFine) {
  dfs::NameNode nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize);
  const auto placement = one_process_per_node(nn);
  Rng rng(1);
  const auto plan = assign_single_data_weighted(nn, {}, placement, rng);
  EXPECT_EQ(plan.total_bytes, 0u);
  EXPECT_EQ(plan.assignment.size(), 4u);
}

TEST(WeightedSingleData, RejectsMultiInputTasks) {
  dfs::NameNode nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  nn.create_file(2 * kDefaultChunkSize, policy, rng);
  runtime::Task t;
  t.inputs = {0, 1};
  EXPECT_THROW(assign_single_data_weighted(nn, {t}, one_process_per_node(nn), rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace opass::core
