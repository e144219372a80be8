// Where the processes of a parallel job run (paper Section IV-A).
//
// Opass's first step is to "retrieve data distribution information from
// storage and build the locality relationship between processes and chunk
// files". The process side of that relationship is a placement: the node each
// process runs on. The data side — which node holds how many of a task's
// input bytes — is core::CoLocationIndex (opass/co_location.hpp).
#pragma once

#include <vector>

#include "dfs/namenode.hpp"

namespace opass::core {

/// Where each process runs (index = ProcessId, value = NodeId).
using ProcessPlacement = std::vector<dfs::NodeId>;

/// `process_count` processes dealt round-robin over the nodes (process p on
/// node p mod m): one per node is the paper's deployment, and k·m processes
/// put k on every node. `process_count` = 0 means one per cluster node.
ProcessPlacement one_process_per_node(const dfs::NameNode& nn, std::uint32_t process_count = 0);

}  // namespace opass::core
