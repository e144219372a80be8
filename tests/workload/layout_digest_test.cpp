// Golden digests of the layouts every dataset generator writes.
//
// Each case builds one generator's dataset at a fixed seed under two
// placement policies (uniform random on one rack, HDFS default on four racks)
// and pins an FNV-1a-64 digest of every chunk's (id, file, index in file,
// size, replicas), the emitted tasks (id, inputs, compute time as a hex
// float) and the next draw of the RNG afterwards. The layout is the only
// thing the planner and the simulator read from the file system, so a change
// to NameNode::create_file or a generator keeps these digests only if it
// keeps the RNG draw sequence, the chunk ids and the replica order.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "workload/dataset.hpp"
#include "workload/genomics.hpp"
#include "workload/multi_input.hpp"
#include "workload/paraview.hpp"

namespace opass::workload {
namespace {

using Generator = std::function<std::vector<runtime::Task>(dfs::NameNode&,
                                                           dfs::PlacementPolicy&, Rng&)>;

void put(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ' ';
}

void put(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a ", v);
  out += buf;
}

/// Everything one generator run leaves behind, rendered as text.
std::string render(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks, Rng& rng) {
  std::string out;
  put(out, std::uint64_t{nn.file_count()});
  for (dfs::ChunkId c = 0; c < nn.chunk_count(); ++c) {
    const dfs::ChunkInfo& ci = nn.chunk(c);
    put(out, std::uint64_t{ci.id});
    put(out, std::uint64_t{ci.file});
    put(out, std::uint64_t{ci.index_in_file});
    put(out, std::uint64_t{ci.size});
    for (dfs::NodeId n : ci.replicas) put(out, std::uint64_t{n});
    out += '\n';
  }
  for (const runtime::Task& t : tasks) {
    put(out, std::uint64_t{t.id});
    for (dfs::ChunkId c : t.inputs) put(out, std::uint64_t{c});
    put(out, t.compute_time);
    out += '\n';
  }
  put(out, rng());
  return out;
}

/// "<size>:<FNV-1a-64 hex>" of both policies' renderings at `seed`.
std::string layout_digest(const Generator& gen, std::uint64_t seed) {
  std::string doc;
  {
    dfs::NameNode nn(dfs::Topology::single_rack(16), 3, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    const auto tasks = gen(nn, policy, rng);
    doc += render(nn, tasks, rng);
  }
  {
    dfs::NameNode nn(dfs::Topology::uniform_racks(16, 4), 3, kDefaultChunkSize);
    dfs::HdfsDefaultPlacement policy;
    Rng rng(seed);
    const auto tasks = gen(nn, policy, rng);
    doc += render(nn, tasks, rng);
  }
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : doc) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%zu:%016" PRIx64, doc.size(), h);
  return buf;
}

struct Case {
  const char* name;
  Generator gen;
  const char* seed7;
  const char* seed1234;
};

std::vector<Case> cases() {
  return {
      {"single_data",
       [](dfs::NameNode& nn, dfs::PlacementPolicy& p, Rng& rng) {
         return make_single_data_workload(nn, 96, p, rng, 0.25);
       },
       "7492:75a342c79e16edd8",
       "7481:cc85a6d57ea63693"},
      {"multi_input",
       [](dfs::NameNode& nn, dfs::PlacementPolicy& p, Rng& rng) {
         return make_multi_input_workload(nn, 40, p, rng);
       },
       "7739:121eab7024c5b94f",
       "7719:694a9281c687b988"},
      {"paraview",
       [](dfs::NameNode& nn, dfs::PlacementPolicy& p, Rng& rng) {
         ParaViewSpec spec;
         spec.dataset_count = 48;
         spec.datasets_per_step = 16;
         return make_paraview_workload(nn, p, rng, spec).tasks;
       },
       "3728:ab16fa0f57c9ddff",
       "3723:2fb5bbb461a70e72"},
      {"genomics",
       [](dfs::NameNode& nn, dfs::PlacementPolicy& p, Rng& rng) {
         GenomicsSpec spec;
         spec.partition_count = 64;
         return make_genomics_workload(nn, p, rng, spec);
       },
       "6766:5dddb90fe740b7f5",
       "6762:a0de51cdf601ca1e"},
      {"skewed",
       [](dfs::NameNode& nn, dfs::PlacementPolicy& p, Rng& rng) {
         SkewedWorkloadParams params;
         params.file_count = 6;
         params.chunks_per_file = 8;
         params.task_count = 100;
         return make_skewed_workload(nn, params, p, rng);
       },
       "5032:bd7989a7e1bdcea3",
       "5027:78eab28ce30a85b4"},
      {"store_chunked_dataset",
       [](dfs::NameNode& nn, dfs::PlacementPolicy& p, Rng& rng) {
         std::vector<dfs::FileId> files;
         for (std::uint32_t chunks : {1u, 5u, 17u})
           files.push_back(store_chunked_dataset(nn, chunks, p, rng));
         return runtime::single_input_tasks(nn, files);
       },
       "1761:2a843e7cde82b8d4",
       "1757:25f60bfaf3411850"},
  };
}

TEST(LayoutDigest, EveryGeneratorKeepsItsLayout) {
  for (const Case& c : cases()) {
    EXPECT_EQ(layout_digest(c.gen, 7), c.seed7) << c.name << " seed 7";
    EXPECT_EQ(layout_digest(c.gen, 1234), c.seed1234) << c.name << " seed 1234";
  }
}

}  // namespace
}  // namespace opass::workload
