#include "opass/locality_graph.hpp"

#include <gtest/gtest.h>

namespace opass::core {
namespace {

struct LocalityGraphFixture : ::testing::Test {
  LocalityGraphFixture()
      : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(1) {}
  dfs::NameNode nn;
  dfs::RoundRobinPlacement policy;
  Rng rng;
};

TEST_F(LocalityGraphFixture, OneProcessPerNodeDefault) {
  const auto p = one_process_per_node(nn);
  ASSERT_EQ(p.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(p[i], i);
}

TEST_F(LocalityGraphFixture, ExplicitProcessCountWraps) {
  const auto p = one_process_per_node(nn, 6);
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p[4], 0u);
  EXPECT_EQ(p[5], 1u);
}

TEST_F(LocalityGraphFixture, ProcessChunkGraphMatchesReplicas) {
  nn.create_file("a", 4 * kDefaultChunkSize, policy, rng);
  const auto g = build_process_chunk_graph(nn, one_process_per_node(nn));
  // Every (process, chunk) edge corresponds to a replica and vice versa:
  // total edges = chunks * replication when one process sits on each node.
  EXPECT_EQ(g.edge_count(), 4u * 2u);
  for (const auto& e : g.edges()) {
    EXPECT_TRUE(nn.chunk(e.right).has_replica_on(e.left));
    EXPECT_EQ(e.weight, kDefaultChunkSize);
  }
}

TEST_F(LocalityGraphFixture, EmptyPlacementRejected) {
  EXPECT_THROW(build_process_chunk_graph(nn, {}), std::invalid_argument);
}

TEST_F(LocalityGraphFixture, ProcessOnUnknownNodeRejected) {
  nn.create_file("a", kDefaultChunkSize, policy, rng);
  EXPECT_THROW(build_process_chunk_graph(nn, {99}), std::invalid_argument);
}

}  // namespace
}  // namespace opass::core
