#include "opass/co_location.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace opass::core {
namespace {

using Entries = std::vector<std::pair<std::uint32_t, Bytes>>;

Entries entries(std::span<const CoLocated> list) {
  Entries out;
  for (const CoLocated& e : list) out.emplace_back(e.id, e.bytes);
  return out;
}

struct CoLocationFixture : ::testing::Test {
  CoLocationFixture() : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(1) {
    nn.create_file(10 * kMiB, policy, rng);  // chunk 0 on {0,1}
    nn.create_file(20 * kMiB, policy, rng);  // chunk 1 on {1,2}
    tasks.resize(3);
    tasks[0].inputs = {0, 1};
    tasks[1].inputs = {1, 1};  // one chunk listed twice counts twice
    tasks[2].inputs = {0};
    for (std::uint32_t t = 0; t < 3; ++t) tasks[t].id = t;
  }
  dfs::NameNode nn;
  dfs::RoundRobinPlacement policy;
  Rng rng;
  std::vector<runtime::Task> tasks;
};

TEST_F(CoLocationFixture, BytesAreCoLocatedInputBytes) {
  const CoLocationIndex index(nn, tasks);
  EXPECT_EQ(index.bytes(0, 0), 10 * kMiB);
  EXPECT_EQ(index.bytes(1, 0), 30 * kMiB);
  EXPECT_EQ(index.bytes(2, 0), 20 * kMiB);
  EXPECT_EQ(index.bytes(3, 0), 0u);
  EXPECT_EQ(index.bytes(1, 1), 40 * kMiB);
  EXPECT_EQ(index.bytes(0, 1), 0u);
}

TEST_F(CoLocationFixture, TaskListsHoldOnlyNonZeroNodesInNodeOrder) {
  const CoLocationIndex index(nn, tasks);
  EXPECT_EQ(entries(index.nodes_of(0)),
            (Entries{{0, 10 * kMiB}, {1, 30 * kMiB}, {2, 20 * kMiB}}));
  EXPECT_EQ(entries(index.nodes_of(1)), (Entries{{1, 40 * kMiB}, {2, 40 * kMiB}}));
  EXPECT_EQ(entries(index.nodes_of(2)), (Entries{{0, 10 * kMiB}, {1, 10 * kMiB}}));
}

TEST_F(CoLocationFixture, NodeListsRankByBytesThenTaskId) {
  const CoLocationIndex index(nn, tasks);
  EXPECT_EQ(entries(index.tasks_on(0)), (Entries{{0, 10 * kMiB}, {2, 10 * kMiB}}));
  EXPECT_EQ(entries(index.tasks_on(1)),
            (Entries{{1, 40 * kMiB}, {0, 30 * kMiB}, {2, 10 * kMiB}}));
  EXPECT_EQ(entries(index.tasks_on(2)), (Entries{{1, 40 * kMiB}, {0, 20 * kMiB}}));
  EXPECT_TRUE(index.tasks_on(3).empty());
}

TEST_F(CoLocationFixture, UnknownChunkRejected) {
  tasks[2].inputs = {99};
  EXPECT_THROW(CoLocationIndex(nn, tasks), std::invalid_argument);
}

}  // namespace
}  // namespace opass::core
