#include "dfs/hdfs_api.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace opass::hdfs {
namespace {

struct HdfsApiFixture : ::testing::Test {
  HdfsApiFixture()
      : nn(dfs::Topology::single_rack(8), 3, 4 * kMiB)  // small chunks for tests
  {
    fs = hdfsConnect(&nn, /*local_node=*/2);
  }
  ~HdfsApiFixture() override { hdfsDisconnect(fs); }

  dfs::NameNode nn;
  hdfsFS fs = nullptr;
};

TEST_F(HdfsApiFixture, WriteThenReadBackRoundTrips) {
  hdfsFile w = hdfsOpenFile(fs, "data/a.bin", O_WRONLY_);
  ASSERT_NE(w, nullptr);
  std::vector<std::uint8_t> payload(10 * kMiB);  // spans 3 chunks of 4 MiB
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  EXPECT_EQ(hdfsWrite(fs, w, payload.data(), static_cast<tSize>(1 * kMiB)),
            static_cast<tSize>(1 * kMiB));
  EXPECT_EQ(hdfsWrite(fs, w, payload.data() + kMiB, static_cast<tSize>(9 * kMiB)),
            static_cast<tSize>(9 * kMiB));
  EXPECT_EQ(hdfsCloseFile(fs, w), 0);

  // Metadata landed on the NameNode: 3 chunks (4 + 4 + 2 MiB).
  const auto info = hdfsGetPathInfo(fs, "data/a.bin");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 10 * kMiB);
  const auto fid = nn.find_file("data/a.bin");
  ASSERT_EQ(nn.file(fid).chunks.size(), 3u);
  EXPECT_EQ(nn.chunk(nn.file(fid).chunks[2]).size, 2 * kMiB);

  hdfsFile r = hdfsOpenFile(fs, "data/a.bin", O_RDONLY_);
  ASSERT_NE(r, nullptr);
  std::vector<std::uint8_t> got(payload.size());
  Bytes off = 0;
  while (off < got.size()) {
    const tSize n = hdfsRead(fs, r, got.data() + off, static_cast<tSize>(3 * kMiB));
    ASSERT_GT(n, 0);
    off += static_cast<Bytes>(n);
  }
  EXPECT_EQ(hdfsRead(fs, r, got.data(), 1), 0);  // EOF
  EXPECT_EQ(got, payload);
  EXPECT_EQ(hdfsCloseFile(fs, r), 0);
}

TEST_F(HdfsApiFixture, OpenMissingForReadFails) {
  EXPECT_EQ(hdfsOpenFile(fs, "no/such", O_RDONLY_), nullptr);
}

TEST_F(HdfsApiFixture, OpenExistingForWriteFails) {
  hdfsFile w = hdfsOpenFile(fs, "x", O_WRONLY_);
  std::uint8_t b = 1;
  hdfsWrite(fs, w, &b, 1);
  hdfsCloseFile(fs, w);
  EXPECT_EQ(hdfsOpenFile(fs, "x", O_WRONLY_), nullptr);
}

TEST_F(HdfsApiFixture, PreadDoesNotMoveCursor) {
  hdfsFile w = hdfsOpenFile(fs, "p", O_WRONLY_);
  std::vector<std::uint8_t> data{10, 20, 30, 40, 50};
  hdfsWrite(fs, w, data.data(), 5);
  hdfsCloseFile(fs, w);

  hdfsFile r = hdfsOpenFile(fs, "p", O_RDONLY_);
  std::uint8_t buf[2];
  EXPECT_EQ(hdfsPread(fs, r, 3, buf, 2), 2);
  EXPECT_EQ(buf[0], 40);
  EXPECT_EQ(hdfsTell(fs, r), 0);
  EXPECT_EQ(hdfsAvailable(fs, r), 5);
  hdfsCloseFile(fs, r);
}

TEST_F(HdfsApiFixture, SeekAndTell) {
  hdfsFile w = hdfsOpenFile(fs, "s", O_WRONLY_);
  std::vector<std::uint8_t> data(100, 7);
  hdfsWrite(fs, w, data.data(), 100);
  hdfsCloseFile(fs, w);

  hdfsFile r = hdfsOpenFile(fs, "s", O_RDONLY_);
  EXPECT_EQ(hdfsSeek(fs, r, 60), 0);
  EXPECT_EQ(hdfsTell(fs, r), 60);
  EXPECT_EQ(hdfsAvailable(fs, r), 40);
  EXPECT_EQ(hdfsSeek(fs, r, 101), -1);  // beyond EOF
  EXPECT_EQ(hdfsSeek(fs, r, -1), -1);
  hdfsCloseFile(fs, r);
}

TEST_F(HdfsApiFixture, SyntheticContentForMetadataOnlyFiles) {
  // Files created directly on the NameNode read back the deterministic
  // pattern.
  dfs::RandomPlacement policy;
  Rng rng(5);
  const auto fid = nn.create_file("meta-only", 6 * kMiB, policy, rng);

  hdfsFile r = hdfsOpenFile(fs, "meta-only", O_RDONLY_);
  ASSERT_NE(r, nullptr);
  std::vector<std::uint8_t> got(64);
  EXPECT_EQ(hdfsPread(fs, r, 4 * kMiB + 10, got.data(), 64), 64);
  const auto chunk1 = nn.file(fid).chunks[1];
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              synthetic_byte(chunk1, 10 + static_cast<Bytes>(i)));
  hdfsCloseFile(fs, r);
}

TEST_F(HdfsApiFixture, ExistsDeleteListDirectory) {
  for (const char* p : {"dir/a", "dir/b", "other/c"}) {
    hdfsFile w = hdfsOpenFile(fs, p, O_WRONLY_);
    std::uint8_t b = 9;
    hdfsWrite(fs, w, &b, 1);
    hdfsCloseFile(fs, w);
  }
  EXPECT_EQ(hdfsExists(fs, "dir/a"), 0);
  EXPECT_EQ(hdfsExists(fs, "dir/z"), -1);
  EXPECT_EQ(hdfsListDirectory(fs, "dir/").size(), 2u);
  EXPECT_EQ(hdfsListDirectory(fs, "").size(), 3u);

  EXPECT_EQ(hdfsDelete(fs, "dir/a"), 0);
  EXPECT_EQ(hdfsExists(fs, "dir/a"), -1);
  EXPECT_EQ(hdfsDelete(fs, "dir/a"), -1);  // double delete fails
  EXPECT_EQ(hdfsListDirectory(fs, "dir/").size(), 1u);
  EXPECT_EQ(hdfsOpenFile(fs, "dir/a", O_RDONLY_), nullptr);
  nn.check_invariants();
}

TEST_F(HdfsApiFixture, GetHostsReturnsPerBlockReplicas) {
  hdfsFile w = hdfsOpenFile(fs, "h", O_WRONLY_);
  std::vector<std::uint8_t> data(9 * kMiB, 1);  // 3 blocks
  hdfsWrite(fs, w, data.data(), static_cast<tSize>(data.size()));
  hdfsCloseFile(fs, w);

  const auto all = hdfsGetHosts(fs, "h", 0, static_cast<tOffset>(9 * kMiB));
  ASSERT_EQ(all.size(), 3u);
  for (const auto& hosts : all) EXPECT_EQ(hosts.size(), 3u);

  // Range query: only the middle block.
  const auto mid =
      hdfsGetHosts(fs, "h", static_cast<tOffset>(4 * kMiB + 1), static_cast<tOffset>(kMiB));
  ASSERT_EQ(mid.size(), 1u);
  const auto fid = nn.find_file("h");
  EXPECT_EQ(mid[0], nn.locations(nn.file(fid).chunks[1]));
}

TEST_F(HdfsApiFixture, LayoutQueriesSeeMetadataOnlyFiles) {
  // Files created straight on the NameNode answer the layout queries like
  // written ones: path info carries size and block size, and a whole-file
  // hosts query lists every block's replicas in block order.
  dfs::RandomPlacement policy;
  Rng rng(9);
  nn.create_file("in/a", 10 * kMiB, policy, rng);  // 4 + 4 + 2 MiB
  const auto info = hdfsGetPathInfo(fs, "in/a");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 10 * kMiB);
  EXPECT_EQ(info->block_size, 4 * kMiB);
  EXPECT_EQ(info->replication, 3u);

  const auto hosts = hdfsGetHosts(fs, "in/a", 0, static_cast<tOffset>(info->size));
  const auto& chunks = nn.file(nn.find_file("in/a")).chunks;
  ASSERT_EQ(hosts.size(), chunks.size());
  for (std::size_t b = 0; b < chunks.size(); ++b) {
    const dfs::ReplicaSet& replicas = nn.locations(chunks[b]);
    EXPECT_EQ(hosts[b], std::vector<dfs::NodeId>(replicas.begin(), replicas.end()));
  }

  EXPECT_FALSE(hdfsGetPathInfo(fs, "ghost").has_value());
  EXPECT_TRUE(hdfsGetHosts(fs, "ghost", 0, 1).empty());
}

TEST_F(HdfsApiFixture, WriterLocalFirstReplica) {
  // Writes through a connect(local_node=2) handle with HDFS-default
  // placement put the first replica on node 2.
  hdfsFS fs2 = hdfsConnect(&nn, 2, dfs::PlacementKind::kHdfsDefault);
  hdfsFile w = hdfsOpenFile(fs2, "local-write", O_WRONLY_);
  std::uint8_t b = 1;
  hdfsWrite(fs2, w, &b, 1);
  hdfsCloseFile(fs2, w);
  const auto fid = nn.find_file("local-write");
  EXPECT_EQ(nn.locations(nn.file(fid).chunks[0])[0], 2u);
  hdfsDisconnect(fs2);
}

TEST_F(HdfsApiFixture, PickServerPrefersLocal) {
  dfs::RandomPlacement policy;
  Rng rng(6);
  nn.create_file("pick", 4 * kMiB, policy, rng);
  const auto fid = nn.find_file("pick");
  const auto chunk = nn.file(fid).chunks[0];
  // Connect from a node that holds a replica: always served locally.
  const dfs::NodeId holder = nn.locations(chunk)[0];
  hdfsFS lfs = hdfsConnect(&nn, holder);
  EXPECT_EQ(hdfsPickServer(lfs, chunk), holder);
  hdfsDisconnect(lfs);
}

TEST_F(HdfsApiFixture, MiscQueries) {
  EXPECT_EQ(hdfsGetDefaultBlockSize(fs), 4 * kMiB);
  hdfsFile w = hdfsOpenFile(fs, "m", O_WRONLY_);
  std::vector<std::uint8_t> data(kMiB, 2);
  hdfsWrite(fs, w, data.data(), static_cast<tSize>(data.size()));
  hdfsCloseFile(fs, w);
  EXPECT_EQ(hdfsGetUsed(fs), 3 * kMiB);  // 1 MiB x 3 replicas
}

TEST_F(HdfsApiFixture, ClosingEmptyWriteFails) {
  hdfsFile w = hdfsOpenFile(fs, "empty", O_WRONLY_);
  EXPECT_EQ(hdfsCloseFile(fs, w), -1);
  EXPECT_EQ(hdfsExists(fs, "empty"), -1);
}

TEST_F(HdfsApiFixture, InvalidHandleOperations) {
  EXPECT_EQ(hdfsRead(fs, nullptr, nullptr, 0), -1);
  EXPECT_EQ(hdfsWrite(fs, nullptr, nullptr, 0), -1);
  EXPECT_EQ(hdfsTell(fs, nullptr), -1);
  hdfsFile w = hdfsOpenFile(fs, "closed", O_WRONLY_);
  std::uint8_t b = 1;
  hdfsWrite(fs, w, &b, 1);
  hdfsCloseFile(fs, w);
  EXPECT_EQ(hdfsWrite(fs, w, &b, 1), -1);  // write after close
  EXPECT_EQ(hdfsCloseFile(fs, w), -1);     // double close
}


TEST_F(HdfsApiFixture, RenameMovesPathKeepingData) {
  hdfsFile w = hdfsOpenFile(fs, "old/name", O_WRONLY_);
  std::vector<std::uint8_t> data{1, 2, 3, 4};
  hdfsWrite(fs, w, data.data(), 4);
  hdfsCloseFile(fs, w);

  EXPECT_EQ(hdfsRename(fs, "old/name", "new/name"), 0);
  EXPECT_EQ(hdfsExists(fs, "old/name"), -1);
  EXPECT_EQ(hdfsExists(fs, "new/name"), 0);

  hdfsFile r = hdfsOpenFile(fs, "new/name", O_RDONLY_);
  ASSERT_NE(r, nullptr);
  std::uint8_t buf[4];
  EXPECT_EQ(hdfsRead(fs, r, buf, 4), 4);
  EXPECT_EQ(buf[2], 3);
  hdfsCloseFile(fs, r);
  nn.check_invariants();
}

TEST_F(HdfsApiFixture, RenameFailures) {
  hdfsFile w = hdfsOpenFile(fs, "a", O_WRONLY_);
  std::uint8_t b = 1;
  hdfsWrite(fs, w, &b, 1);
  hdfsCloseFile(fs, w);
  hdfsFile w2 = hdfsOpenFile(fs, "b", O_WRONLY_);
  hdfsWrite(fs, w2, &b, 1);
  hdfsCloseFile(fs, w2);

  EXPECT_EQ(hdfsRename(fs, "ghost", "c"), -1);  // missing source
  EXPECT_EQ(hdfsRename(fs, "a", "b"), -1);      // target exists
  EXPECT_EQ(hdfsExists(fs, "a"), 0);            // unchanged on failure
}

TEST_F(HdfsApiFixture, OverLengthReadIsClampedNotOverrun) {
  // Regression for the fill_bytes bounds check: a read request far past the
  // stored content must clamp to the remaining bytes — never memcpy past the
  // content buffer (ASan would flag the old unchecked copy).
  hdfsFile w = hdfsOpenFile(fs, "short.bin", O_WRONLY_);
  ASSERT_NE(w, nullptr);
  std::vector<std::uint8_t> payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i);
  ASSERT_EQ(hdfsWrite(fs, w, payload.data(), 100), 100);
  ASSERT_EQ(hdfsCloseFile(fs, w), 0);

  hdfsFile r = hdfsOpenFile(fs, "short.bin", O_RDONLY_);
  ASSERT_NE(r, nullptr);
  std::vector<std::uint8_t> buf(4096, 0xee);
  // Whole-file read with a 40x over-length request: exactly 100 bytes come
  // back and the tail of the buffer is untouched.
  EXPECT_EQ(hdfsPread(fs, r, 0, buf.data(), 4096), 100);
  EXPECT_EQ(std::memcmp(buf.data(), payload.data(), 100), 0);
  EXPECT_EQ(buf[100], 0xee);
  // Over-length request starting mid-file.
  EXPECT_EQ(hdfsPread(fs, r, 60, buf.data(), 4096), 40);
  EXPECT_EQ(std::memcmp(buf.data(), payload.data() + 60, 40), 0);
  // Request starting exactly at EOF and past EOF.
  EXPECT_EQ(hdfsPread(fs, r, 100, buf.data(), 1), 0);
  EXPECT_EQ(hdfsPread(fs, r, 4096, buf.data(), 1), 0);
  hdfsCloseFile(fs, r);
}

TEST_F(HdfsApiFixture, PreadOnDeletedFileFails) {
  hdfsFile w = hdfsOpenFile(fs, "doomed", O_WRONLY_);
  std::uint8_t b = 1;
  hdfsWrite(fs, w, &b, 1);
  hdfsCloseFile(fs, w);
  hdfsFile r = hdfsOpenFile(fs, "doomed", O_RDONLY_);
  ASSERT_NE(r, nullptr);
  hdfsDelete(fs, "doomed");
  std::uint8_t buf;
  EXPECT_EQ(hdfsPread(fs, r, 0, &buf, 1), -1);
  hdfsCloseFile(fs, r);
}

}  // namespace
}  // namespace opass::hdfs
