// Building the process↔data co-location graph (paper Section IV-A, Fig. 4).
//
// Opass's first step is to "retrieve data distribution information from
// storage and build the locality relationship between processes and chunk
// files". Here that means querying the NameNode for replica locations and
// adding an edge (p, f) whenever a replica of chunk f sits on the node that
// process p runs on; the edge weight is the co-located byte count.
#pragma once

#include <vector>

#include "dfs/namenode.hpp"
#include "graph/bipartite_graph.hpp"

namespace opass::core {

/// Where each process runs (index = ProcessId, value = NodeId).
using ProcessPlacement = std::vector<dfs::NodeId>;

/// One process pinned to each of the first `process_count` nodes (the
/// paper's deployment); `process_count` = 0 means one per cluster node.
ProcessPlacement one_process_per_node(const dfs::NameNode& nn, std::uint32_t process_count = 0);

/// Fig. 4 graph: left = processes, right = *chunks*; an edge means the chunk
/// has a replica on the process's node, weighted by the chunk size.
graph::BipartiteGraph build_process_chunk_graph(const dfs::NameNode& nn,
                                                const ProcessPlacement& placement);

}  // namespace opass::core
