#include "workload/dataset.hpp"

#include <gtest/gtest.h>

namespace opass::workload {
namespace {

TEST(Dataset, StoreChunkedDataset) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  const auto fid = store_chunked_dataset(nn, 12, policy, rng);
  EXPECT_EQ(nn.file(fid).chunks.size(), 12u);
  EXPECT_EQ(nn.file(fid).size, 12 * kDefaultChunkSize);
  for (auto c : nn.file(fid).chunks) EXPECT_EQ(nn.chunk(c).size, kDefaultChunkSize);
}

TEST(Dataset, RejectsZeroChunks) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  EXPECT_THROW(store_chunked_dataset(nn, 0, policy, rng), std::invalid_argument);
}

TEST(Dataset, SingleDataWorkloadTasksMatchChunks) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(2);
  const auto tasks = make_single_data_workload(nn, 20, policy, rng, 0.7);
  ASSERT_EQ(tasks.size(), 20u);
  for (const auto& t : tasks) {
    EXPECT_EQ(t.inputs.size(), 1u);
    EXPECT_EQ(t.compute_time, 0.7);
  }
}

TEST(Dataset, PlacementSeedReproducible) {
  auto build = [] {
    dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(77);
    make_single_data_workload(nn, 16, policy, rng);
    return nn.node_chunk_counts();
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace opass::workload
