#include "opass/co_location.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace opass::core {

CoLocationIndex::CoLocationIndex(const dfs::NameNode& nn,
                                 const std::vector<runtime::Task>& tasks) {
  const std::uint32_t nodes = nn.node_count();
  task_begin_.reserve(tasks.size() + 1);
  task_begin_.push_back(0);
  node_begin_.assign(static_cast<std::size_t>(nodes) + 1, 0);

  // Per task: one (node, size) entry per input chunk and replica, then sort
  // by node and fold equal nodes into one sum.
  for (const runtime::Task& task : tasks) {
    const std::size_t first = by_task_.size();
    for (dfs::ChunkId c : task.inputs) {
      const dfs::ChunkInfo& chunk = nn.chunk(c);
      for (dfs::NodeId node : chunk.replicas) {
        OPASS_CHECK(node < nodes, "replica on unknown node");
        by_task_.push_back({node, chunk.size});
      }
    }
    const auto begin = by_task_.begin() + static_cast<std::ptrdiff_t>(first);
    std::sort(begin, by_task_.end(),
              [](const CoLocated& a, const CoLocated& b) { return a.id < b.id; });
    auto out = begin;
    for (auto it = begin; it != by_task_.end(); ++it) {
      if (out != begin && (out - 1)->id == it->id) {
        (out - 1)->bytes += it->bytes;
      } else {
        *out++ = *it;
      }
    }
    by_task_.erase(out, by_task_.end());
    task_begin_.push_back(by_task_.size());
    for (auto it = begin; it != by_task_.end(); ++it) ++node_begin_[it->id + 1];
  }

  // Per node: transpose (tasks arrive in id order), then rank each node's
  // tasks by bytes descending, id ascending.
  for (std::uint32_t v = 0; v < nodes; ++v) node_begin_[v + 1] += node_begin_[v];
  by_node_.resize(by_task_.size());
  std::vector<std::size_t> fill(node_begin_.begin(), node_begin_.end() - 1);
  for (std::uint32_t t = 0; t < tasks.size(); ++t)
    for (const CoLocated& e : nodes_of(t)) by_node_[fill[e.id]++] = {t, e.bytes};
  for (std::uint32_t v = 0; v < nodes; ++v) {
    std::sort(by_node_.begin() + static_cast<std::ptrdiff_t>(node_begin_[v]),
              by_node_.begin() + static_cast<std::ptrdiff_t>(node_begin_[v + 1]),
              [](const CoLocated& a, const CoLocated& b) {
                return a.bytes != b.bytes ? a.bytes > b.bytes : a.id < b.id;
              });
  }
}

Bytes CoLocationIndex::bytes(dfs::NodeId node, std::uint32_t task) const {
  for (const CoLocated& e : nodes_of(task))
    if (e.id == node) return e.bytes;
  return 0;
}

}  // namespace opass::core
