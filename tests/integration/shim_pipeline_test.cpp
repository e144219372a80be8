// Full-stack integration through the public libhdfs-style API only:
// ingest files with hdfsWrite, discover the layout with hdfsGetHosts, plan
// with Opass, execute on the simulated cluster, and verify the data and the
// locality end to end — the workflow a real deployment would follow.
#include <gtest/gtest.h>

#include "dfs/hdfs_api.hpp"
#include "opass/opass.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"

namespace opass {
namespace {

TEST(ShimPipeline, IngestPlanExecuteVerify) {
  constexpr std::uint32_t kNodes = 8;
  constexpr std::uint32_t kFiles = 24;
  dfs::NameNode nn(dfs::Topology::single_rack(kNodes), 3, 4 * kMiB);
  hdfs::hdfsFS fs = hdfs::hdfsConnect(&nn, dfs::kInvalidNode);

  // 1. Ingest: one single-block file per future task, real bytes.
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    const std::string path = "series/part" + std::to_string(i);
    hdfs::hdfsFile w = hdfs::hdfsOpenFile(fs, path, hdfs::O_WRONLY_);
    ASSERT_NE(w, nullptr);
    std::vector<std::uint8_t> data(2 * kMiB, static_cast<std::uint8_t>(i));
    ASSERT_EQ(hdfs::hdfsWrite(fs, w, data.data(), static_cast<hdfs::tSize>(data.size())),
              static_cast<hdfs::tSize>(data.size()));
    ASSERT_EQ(hdfs::hdfsCloseFile(fs, w), 0);
    paths.push_back(path);
  }

  // 2. Discover the layout through hdfsGetPathInfo + hdfsGetHosts and plan
  //    with Opass. Each file is one block, hence one task reading its chunk.
  std::vector<runtime::Task> tasks(kFiles);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    const auto info = hdfs::hdfsGetPathInfo(fs, paths[i]);
    ASSERT_TRUE(info.has_value());
    const auto hosts =
        hdfs::hdfsGetHosts(fs, paths[i], 0, static_cast<hdfs::tOffset>(info->size));
    ASSERT_EQ(hosts.size(), 1u);
    const dfs::ChunkId chunk = nn.file(nn.find_file(paths[i])).chunks[0];
    const dfs::ReplicaSet& replicas = nn.locations(chunk);
    EXPECT_EQ(hosts[0], std::vector<dfs::NodeId>(replicas.begin(), replicas.end()));
    tasks[i].id = i;
    tasks[i].inputs = {chunk};
  }
  const auto placement = core::one_process_per_node(nn);

  Rng rng(3);
  const auto plan = core::assign_single_data(nn, tasks, placement, rng);
  EXPECT_GT(plan.locally_matched, kFiles * 3 / 4);

  // 3. Execute on the simulated cluster.
  sim::Cluster cluster(kNodes);
  runtime::StaticAssignmentSource source(plan.assignment);
  const auto result = runtime::execute(cluster, nn, tasks, source, rng);
  EXPECT_EQ(result.tasks_executed, kFiles);
  EXPECT_GT(result.trace.local_fraction(), 0.75);

  // 4. Verify content integrity through the read path.
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    hdfs::hdfsFile r = hdfs::hdfsOpenFile(fs, paths[i], hdfs::O_RDONLY_);
    ASSERT_NE(r, nullptr);
    std::uint8_t probe[8];
    ASSERT_EQ(hdfs::hdfsPread(fs, r, kMiB, probe, 8), 8);
    for (std::uint8_t byte : probe) EXPECT_EQ(byte, static_cast<std::uint8_t>(i));
    hdfs::hdfsCloseFile(fs, r);
  }
  hdfs::hdfsDisconnect(fs);
}

}  // namespace
}  // namespace opass
