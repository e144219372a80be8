// Sparse process↔task co-location index (the Fig. 6(a) table without its
// zeros).
//
// Algorithm 1 ranks tasks by m_i^j, the bytes of task j's inputs stored on
// the node process i runs on. A task is co-located with at most
// |inputs| × r nodes, so nearly every entry of the m × n table is zero. The
// index keeps only the non-zero entries, in two CSR views:
//   - per task: (node, co-located bytes), node ascending;
//   - per node: (task, co-located bytes), bytes descending then task id
//     ascending — exactly the non-zero prefix of a stable descending sort of
//     all tasks by their bytes on that node.
//
// It is a snapshot of the replica map taken when it is built. Consumers that
// must see replicas move while a run executes (re-replication after a fault)
// query the NameNode directly instead.
//
// Build is O(nnz log nnz) time and O(nnz + n + nodes) memory, nnz being the
// number of non-zero (node, task) pairs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dfs/namenode.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// One non-zero entry of the co-location table, seen from one side: `id` is
/// the node (in a task's list) or the task (in a node's list).
struct CoLocated {
  std::uint32_t id = 0;
  Bytes bytes = 0;
};

class CoLocationIndex {
 public:
  /// Index `tasks` against the NameNode's current replica map. Each input
  /// chunk adds its size to every node holding a replica (the NameNode keeps
  /// replicas distinct and chunks non-empty), so a chunk listed twice by a
  /// task counts twice.
  CoLocationIndex(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks);

  /// Nodes holding some of `task`'s input bytes, node ascending.
  std::span<const CoLocated> nodes_of(std::uint32_t task) const {
    return {by_task_.data() + task_begin_[task], by_task_.data() + task_begin_[task + 1]};
  }

  /// Tasks with input bytes on `node`, bytes descending then id ascending.
  std::span<const CoLocated> tasks_on(dfs::NodeId node) const {
    return {by_node_.data() + node_begin_[node], by_node_.data() + node_begin_[node + 1]};
  }

  /// m_i^j: bytes of `task`'s inputs stored on `node` (0 if none). Scans the
  /// task's short list.
  Bytes bytes(dfs::NodeId node, std::uint32_t task) const;

 private:
  std::vector<std::size_t> task_begin_;  // CSR offsets into by_task_, n + 1
  std::vector<CoLocated> by_task_;       // id = node
  std::vector<std::size_t> node_begin_;  // CSR offsets into by_node_, nodes + 1
  std::vector<CoLocated> by_node_;       // id = task
};

}  // namespace opass::core
