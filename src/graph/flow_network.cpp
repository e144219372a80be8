#include "graph/flow_network.hpp"

namespace opass::graph {

void FlowNetwork::clear(NodeIdx node_count) {
  nodes_ = node_count;
  to_.clear();
  cap_.clear();
  orig_cap_.clear();
  finalized_ = false;
}

void FlowNetwork::reserve(std::size_t edge_count) {
  to_.reserve(2 * edge_count);
  cap_.reserve(2 * edge_count);
  orig_cap_.reserve(edge_count);
}

NodeIdx FlowNetwork::add_nodes(NodeIdx count) {
  const NodeIdx first = nodes_;
  nodes_ += count;
  finalized_ = false;
  return first;
}

EdgeIdx FlowNetwork::add_edge(NodeIdx u, NodeIdx v, Cap capacity) {
  OPASS_REQUIRE(u < nodes_ && v < nodes_, "edge endpoint out of range");
  OPASS_REQUIRE(capacity >= 0, "edge capacity must be non-negative");
  const auto fwd = static_cast<EdgeIdx>(to_.size());
  to_.push_back(v);
  cap_.push_back(capacity);
  orig_cap_.push_back(capacity);
  to_.push_back(u);
  cap_.push_back(0);
  finalized_ = false;
  return fwd / 2;
}

Cap FlowNetwork::flow(EdgeIdx e) const {
  OPASS_REQUIRE(static_cast<std::size_t>(e) * 2 < to_.size(), "edge index out of range");
  // Flow on a forward edge equals the residual capacity accumulated on its
  // reverse half-edge.
  return cap_[e * 2 + 1];
}

Cap FlowNetwork::capacity(EdgeIdx e) const {
  OPASS_REQUIRE(static_cast<std::size_t>(e) * 2 < to_.size(), "edge index out of range");
  return orig_cap_[e];
}

void FlowNetwork::reset_flow() {
  for (std::size_t e = 0; e < orig_cap_.size(); ++e) {
    cap_[2 * e] = orig_cap_[e];
    cap_[2 * e + 1] = 0;
  }
}

void FlowNetwork::push(EdgeIdx half_edge, Cap amount) {
  OPASS_CHECK(half_edge < cap_.size(), "half edge out of range");
  OPASS_CHECK(cap_[half_edge] >= amount, "pushing more flow than residual capacity");
  cap_[half_edge] -= amount;
  cap_[half_edge ^ 1] += amount;
}

FlowNetwork::AdjacencyRange FlowNetwork::residual_adjacency(NodeIdx u) const {
  OPASS_REQUIRE(u < nodes_, "node index out of range");
  if (!finalized_) finalize();
  const EdgeIdx* base = csr_.data();
  return {base + offsets_[u], base + offsets_[u + 1]};
}

void FlowNetwork::finalize() const {
  const auto half_count = static_cast<std::uint32_t>(to_.size());
  // Counting sort of half-edge ids by origin node. The origin of half-edge h
  // is the target of its pair h ^ 1. Insertion order is preserved within each
  // node's bucket, so traversal order matches the legacy adjacency-list
  // representation exactly (deterministic solver paths).
  offsets_.assign(static_cast<std::size_t>(nodes_) + 1, 0);
  for (std::uint32_t h = 0; h < half_count; ++h) ++offsets_[to_[h ^ 1] + 1];
  for (NodeIdx u = 0; u < nodes_; ++u) offsets_[u + 1] += offsets_[u];
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  csr_.resize(half_count);
  for (std::uint32_t h = 0; h < half_count; ++h) csr_[cursor_[to_[h ^ 1]]++] = h;
  finalized_ = true;
}

}  // namespace opass::graph
