#include "dfs/namenode.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace opass::dfs {
namespace {

NameNode make_nn(std::uint32_t nodes = 8, std::uint32_t r = 3) {
  return NameNode(Topology::single_rack(nodes), r, kDefaultChunkSize);
}

TEST(NameNode, ConstructionValidation) {
  EXPECT_THROW(NameNode(Topology::single_rack(2), 3), std::invalid_argument);
  EXPECT_THROW(NameNode(Topology::single_rack(4), 0), std::invalid_argument);
  EXPECT_THROW(NameNode(Topology::single_rack(4), 2, 0), std::invalid_argument);
}

TEST(NameNode, CreateFileSplitsIntoChunks) {
  auto nn = make_nn();
  RandomPlacement policy;
  Rng rng(3);
  const FileId fid = nn.create_file(3 * kDefaultChunkSize + kMiB, policy, rng);
  const auto& f = nn.file(fid);
  EXPECT_EQ(f.size, 3 * kDefaultChunkSize + kMiB);
  ASSERT_EQ(f.chunks.size(), 4u);
  // First chunks are full size, the last carries the remainder.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(nn.chunk(f.chunks[i]).size, kDefaultChunkSize);
  EXPECT_EQ(nn.chunk(f.chunks[3]).size, kMiB);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(nn.chunk(f.chunks[i]).index_in_file, i);
    EXPECT_EQ(nn.chunk(f.chunks[i]).file, fid);
  }
}

TEST(NameNode, EveryChunkHasRDistinctReplicas) {
  auto nn = make_nn(8, 3);
  RandomPlacement policy;
  Rng rng(5);
  nn.create_file(10 * kDefaultChunkSize, policy, rng);
  for (ChunkId c = 0; c < nn.chunk_count(); ++c) {
    EXPECT_EQ(nn.locations(c).size(), 3u);
  }
  nn.check_invariants();
}

TEST(NameNode, RejectsEmptyFile) {
  auto nn = make_nn();
  RandomPlacement policy;
  Rng rng(5);
  EXPECT_THROW(nn.create_file(0, policy, rng), std::invalid_argument);
}

/// Returns its node lists in turn, one per chunk, whatever it is asked for;
/// the last list repeats once the others are used up.
class FixedPlacement final : public PlacementPolicy {
 public:
  explicit FixedPlacement(std::vector<std::vector<NodeId>> per_chunk)
      : per_chunk_(std::move(per_chunk)) {}
  std::vector<NodeId> place(const Topology&, NodeId, std::uint32_t, Rng&) override {
    const std::size_t i = std::min(next_++, per_chunk_.size() - 1);
    return per_chunk_[i];
  }
  std::string name() const override { return "fixed"; }

 private:
  std::vector<std::vector<NodeId>> per_chunk_;
  std::size_t next_ = 0;
};

TEST(NameNode, RejectsBadReplicaSetsFromPolicy) {
  // One namespace throughout, already holding a file, so a rejected create
  // must leave existing state exactly as it was: same files, same chunks,
  // same per-node inventories, and every invariant intact.
  Rng rng(5);
  auto nn = make_nn(8, 3);
  RandomPlacement random;
  nn.create_file(2 * kDefaultChunkSize, random, rng);
  auto expect_unchanged = [&] {
    EXPECT_EQ(nn.file_count(), 1u);
    EXPECT_EQ(nn.chunk_count(), 2u);
    const auto counts = nn.node_chunk_counts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 6u);
    EXPECT_NO_THROW(nn.check_invariants());
  };
  auto create = [&](std::vector<std::vector<NodeId>> per_chunk, Bytes size = kMiB) {
    FixedPlacement policy(std::move(per_chunk));
    nn.create_file(size, policy, rng);
  };
  try {
    create({{1, 4, 1}});
    FAIL() << "duplicate replicas accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("policy returned duplicate replicas"),
              std::string::npos);
  }
  expect_unchanged();
  EXPECT_THROW(create({{1, 4}}), std::logic_error);
  expect_unchanged();
  EXPECT_THROW(create({{1, 4, 8}}), std::logic_error);
  expect_unchanged();
  // Chunks 0 and 1 place fine; chunk 2 is rejected, and the two placed
  // chunks must go with it.
  EXPECT_THROW(create({{0, 1, 2}, {3, 4, 5}, {6, 6, 7}}, 3 * kDefaultChunkSize),
               std::logic_error);
  expect_unchanged();
  EXPECT_NO_THROW(create({{1, 4, 7}}));
  EXPECT_EQ(nn.file_count(), 2u);
  EXPECT_EQ(nn.chunk_count(), 3u);
  nn.check_invariants();
}

TEST(NameNode, NodeInventoriesAreConsistent) {
  auto nn = make_nn(6, 2);
  RandomPlacement policy;
  Rng rng(7);
  nn.create_file(20 * kDefaultChunkSize, policy, rng);
  const auto counts = nn.node_chunk_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 40u);  // 20 chunks * 2
  const auto bytes = nn.node_bytes();
  Bytes total = 0;
  for (Bytes b : bytes) total += b;
  EXPECT_EQ(total, 2 * 20 * kDefaultChunkSize);
}

TEST(NameNode, TotalFileBytes) {
  auto nn = make_nn();
  RandomPlacement policy;
  Rng rng(9);
  nn.create_file(5 * kMiB, policy, rng);
  nn.create_file(7 * kMiB, policy, rng);
  EXPECT_EQ(nn.total_file_bytes(), 12 * kMiB);
}

TEST(NameNode, OutOfRangeAccessorsThrow) {
  auto nn = make_nn();
  EXPECT_THROW(nn.file(0), std::invalid_argument);
  EXPECT_THROW(nn.chunk(0), std::invalid_argument);
  EXPECT_THROW(nn.chunks_on_node(99), std::invalid_argument);
}

TEST(NameNode, AddNodeStartsEmpty) {
  auto nn = make_nn(4, 2);
  RandomPlacement policy;
  Rng rng(11);
  nn.create_file(8 * kDefaultChunkSize, policy, rng);
  const NodeId added = nn.add_node();
  EXPECT_EQ(nn.node_count(), 5u);
  EXPECT_TRUE(nn.chunks_on_node(added).empty());
  nn.check_invariants();
}

TEST(NameNode, DecommissionReReplicates) {
  auto nn = make_nn(8, 3);
  RandomPlacement policy;
  Rng rng(13);
  nn.create_file(30 * kDefaultChunkSize, policy, rng);
  const auto before = nn.chunks_on_node(2).size();
  ASSERT_GT(before, 0u);
  nn.decommission_node(2, rng);
  EXPECT_TRUE(nn.is_decommissioned(2));
  EXPECT_TRUE(nn.chunks_on_node(2).empty());
  // Replication factor restored everywhere, never on the dead node.
  for (ChunkId c = 0; c < nn.chunk_count(); ++c) {
    EXPECT_EQ(nn.locations(c).size(), 3u);
    EXPECT_FALSE(nn.chunk(c).has_replica_on(2));
  }
  nn.check_invariants();
}

TEST(NameNode, DecommissionTwiceThrows) {
  auto nn = make_nn(8, 3);
  Rng rng(13);
  nn.decommission_node(2, rng);
  EXPECT_THROW(nn.decommission_node(2, rng), std::invalid_argument);
}

TEST(NameNode, DecommissionBelowReplicationThrows) {
  auto nn = make_nn(3, 3);
  Rng rng(13);
  EXPECT_THROW(nn.decommission_node(0, rng), std::invalid_argument);
}

TEST(NameNode, BalanceTightensSpread) {
  // Start from a deliberately skewed layout (writer-local placement with a
  // fixed writer), then balance.
  auto nn = make_nn(8, 2);
  HdfsDefaultPlacement policy;
  Rng rng(17);
  for (int i = 0; i < 24; ++i)
    nn.create_file(kDefaultChunkSize, policy, rng, /*writer=*/0);

  auto spread = [&] {
    const auto counts = nn.node_chunk_counts();
    std::uint32_t hi = 0, lo = UINT32_MAX;
    for (auto c : counts) {
      hi = std::max(hi, c);
      lo = std::min(lo, c);
    }
    return std::pair{hi, lo};
  };
  const auto before = spread();
  ASSERT_GT(before.first, before.second + 1);

  const auto moves = nn.balance(rng, 1);
  EXPECT_GT(moves, 0u);
  const auto after = spread();
  EXPECT_LE(after.first, after.second + 1);
  nn.check_invariants();
}

TEST(NameNode, BalanceNoopOnEvenLayout) {
  auto nn = make_nn(4, 2);
  RoundRobinPlacement policy;
  Rng rng(19);
  nn.create_file(8 * kDefaultChunkSize, policy, rng);
  EXPECT_EQ(nn.balance(rng, 1), 0u);
}

TEST(NameNode, MultipleFilesGetDenseChunkIds) {
  auto nn = make_nn();
  RandomPlacement policy;
  Rng rng(23);
  const FileId a = nn.create_file(2 * kDefaultChunkSize, policy, rng);
  const FileId b = nn.create_file(2 * kDefaultChunkSize, policy, rng);
  EXPECT_EQ(nn.file(a).chunks, (std::vector<ChunkId>{0, 1}));
  EXPECT_EQ(nn.file(b).chunks, (std::vector<ChunkId>{2, 3}));
  EXPECT_EQ(nn.chunk_count(), 4u);
  EXPECT_EQ(nn.file_count(), 2u);
}

}  // namespace
}  // namespace opass::dfs
