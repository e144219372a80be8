// Residual flow network used by the Opass single-data assigner (the network of
// paper Fig. 5) and by the max-flow algorithms in max_flow.hpp.
//
// Storage is a compact CSR (compressed sparse row) arena: edges are paired
// forward/reverse half-edge entries in flat arrays (the reverse of half-edge
// h is h ^ 1), and adjacency is a counting-sorted index over half-edge ids,
// built lazily on first residual query and rebuilt only after new edges are
// added. There is no per-node std::vector, so a network is three flat arrays
// plus the CSR index — cache-friendly to traverse and cheap to reuse:
// clear() resets the network to empty while keeping every arena's capacity,
// so repeated planning runs (dynamic/incremental replanning) allocate
// nothing in steady state. Capacities are 64-bit so byte-granularity
// networks (capacities up to the dataset size) are exact.
#pragma once

#include <cstdint>
#include <vector>

#include "common/require.hpp"

namespace opass::graph {

using NodeIdx = std::uint32_t;
using EdgeIdx = std::uint32_t;
using Cap = std::int64_t;

/// Directed flow network with residual edges.
class FlowNetwork {
 public:
  explicit FlowNetwork(NodeIdx node_count = 0) : nodes_(node_count) {}

  /// Reset to an empty `node_count`-node network, keeping the arenas'
  /// capacity so a reused network reaches zero steady-state allocation.
  void clear(NodeIdx node_count = 0);

  /// Make room for `edge_count` forward edges in total, so adding up to
  /// that many never reallocates the edge arrays.
  void reserve(std::size_t edge_count);

  /// Add `count` fresh nodes, returning the index of the first.
  NodeIdx add_nodes(NodeIdx count = 1);

  NodeIdx node_count() const { return nodes_; }

  /// Number of *forward* edges added via add_edge.
  std::size_t edge_count() const { return to_.size() / 2; }

  /// Add a directed edge u -> v with the given capacity (>= 0).
  /// Returns the forward edge index (use with flow()/capacity()).
  EdgeIdx add_edge(NodeIdx u, NodeIdx v, Cap capacity);

  /// Flow currently routed through forward edge e (set by a max-flow run).
  Cap flow(EdgeIdx e) const;

  /// Original capacity of forward edge e.
  Cap capacity(EdgeIdx e) const;

  /// Endpoints of forward edge e. The origin is recovered from the reverse
  /// half-edge's target, so no separate from-array is stored.
  NodeIdx edge_from(EdgeIdx e) const { return to_[e * 2 + 1]; }
  NodeIdx edge_to(EdgeIdx e) const { return to_[e * 2]; }

  /// Reset all flows to zero (capacities preserved).
  void reset_flow();

  // --- residual-graph accessors used by the algorithms ---

  /// Contiguous view over the half-edge ids leaving one node.
  struct AdjacencyRange {
    const EdgeIdx* first = nullptr;
    const EdgeIdx* last = nullptr;
    const EdgeIdx* begin() const { return first; }
    const EdgeIdx* end() const { return last; }
    std::size_t size() const { return static_cast<std::size_t>(last - first); }
    EdgeIdx operator[](std::size_t i) const { return first[i]; }
  };

  /// Half-edges (both directions) incident from u. Finalizes the CSR index
  /// if edges were added since the last query.
  AdjacencyRange residual_adjacency(NodeIdx u) const;

  NodeIdx residual_to(EdgeIdx half_edge) const { return to_[half_edge]; }
  Cap residual_capacity(EdgeIdx half_edge) const { return cap_[half_edge]; }
  void push(EdgeIdx half_edge, Cap amount);

 private:
  /// Build the CSR adjacency index (counting sort of half-edges by origin).
  /// Lazily invoked from residual_adjacency; idempotent until the edge set
  /// changes. The index is derived state, hence mutable.
  void finalize() const;

  NodeIdx nodes_ = 0;
  // Half-edge arrays: entry 2e is the forward direction of logical edge e,
  // entry 2e+1 the residual reverse.
  std::vector<NodeIdx> to_;
  std::vector<Cap> cap_;        // residual capacities
  std::vector<Cap> orig_cap_;   // original capacity per logical edge (reverses start at 0)
  mutable std::vector<EdgeIdx> csr_;             // half-edge ids grouped by origin
  mutable std::vector<std::uint32_t> offsets_;   // nodes_ + 1 bucket boundaries
  mutable std::vector<std::uint32_t> cursor_;    // counting-sort scratch
  mutable bool finalized_ = false;
};

}  // namespace opass::graph
