#include "opass/locality_graph.hpp"

namespace opass::core {

ProcessPlacement one_process_per_node(const dfs::NameNode& nn, std::uint32_t process_count) {
  const std::uint32_t m = process_count ? process_count : nn.node_count();
  ProcessPlacement placement(m);
  for (std::uint32_t p = 0; p < m; ++p)
    placement[p] = static_cast<dfs::NodeId>(p % nn.node_count());
  return placement;
}

}  // namespace opass::core
