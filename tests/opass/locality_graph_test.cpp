#include "opass/locality_graph.hpp"

#include <gtest/gtest.h>

namespace opass::core {
namespace {

struct LocalityGraphFixture : ::testing::Test {
  dfs::NameNode nn{dfs::Topology::single_rack(4), 2, kDefaultChunkSize};
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

}  // namespace
}  // namespace opass::core
