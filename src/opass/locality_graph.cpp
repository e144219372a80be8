#include "opass/locality_graph.hpp"

#include "common/require.hpp"

namespace opass::core {

ProcessPlacement one_process_per_node(const dfs::NameNode& nn, std::uint32_t process_count) {
  const std::uint32_t m = process_count ? process_count : nn.node_count();
  ProcessPlacement placement(m);
  for (std::uint32_t p = 0; p < m; ++p)
    placement[p] = static_cast<dfs::NodeId>(p % nn.node_count());
  return placement;
}

graph::BipartiteGraph build_process_chunk_graph(const dfs::NameNode& nn,
                                                const ProcessPlacement& placement) {
  OPASS_REQUIRE(!placement.empty(), "need at least one process");
  graph::BipartiteGraph g(static_cast<std::uint32_t>(placement.size()), nn.chunk_count());
  for (std::uint32_t p = 0; p < placement.size(); ++p) {
    OPASS_REQUIRE(placement[p] < nn.node_count(), "process placed on unknown node");
    for (dfs::ChunkId c : nn.chunks_on_node(placement[p])) {
      g.add_edge(p, c, nn.chunk(c).size);
    }
  }
  return g;
}

}  // namespace opass::core
