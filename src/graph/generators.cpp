#include "graph/generators.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace lumos::graph {

namespace {
// Packs an edge into a 64-bit key for duplicate detection.
std::uint64_t edge_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

// The generators' duplicate check: an open-addressing set of edge keys with
// linear probing, in a power-of-two table kept at most half full.  Key 0
// marks an empty slot; no edge key is 0, because self-loops never enter and
// the larger endpoint of any other edge is at least 1.
class EdgeKeySet {
 public:
  // Sized for `capacity` insertions.
  explicit EdgeKeySet(std::size_t capacity)
      : table_(std::bit_ceil(std::max<std::size_t>(2 * capacity, 2)), 0),
        shift_(64 - std::countr_zero(table_.size())) {}

  // Adds `key`; false when it is already present.
  bool insert(std::uint64_t key) {
    const std::size_t mask = table_.size() - 1;
    // Fibonacci hashing: the top bits of the product index the table.
    for (std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> shift_;; i = (i + 1) & mask) {
      if (table_[i] == key) return false;
      if (table_[i] == 0) {
        table_[i] = key;
        return true;
      }
    }
  }

 private:
  std::vector<std::uint64_t> table_;
  int shift_;
};
}  // namespace

CsrGraph erdos_renyi(std::size_t node_count, std::size_t edge_count, std::uint64_t seed) {
  LUMOS_EXPECTS(node_count >= 2);
  const std::size_t max_edges = node_count * (node_count - 1) / 2;
  LUMOS_EXPECTS_MSG(edge_count <= max_edges, "more edges than a simple graph allows");
  Rng rng(seed);
  EdgeKeySet seen(edge_count);
  std::vector<Edge> edges;
  edges.reserve(edge_count);
  while (edges.size() < edge_count) {
    const auto a = static_cast<NodeId>(rng.next_below(static_cast<std::uint32_t>(node_count)));
    const auto b = static_cast<NodeId>(rng.next_below(static_cast<std::uint32_t>(node_count)));
    if (a == b) continue;
    if (seen.insert(edge_key(a, b))) edges.push_back({a, b});
  }
  return CsrGraph(node_count, std::move(edges), /*symmetrize=*/true);
}

CsrGraph rmat(std::size_t scale, std::size_t edges_per_node, RmatParams params,
              std::uint64_t seed) {
  LUMOS_EXPECTS(scale >= 2 && scale <= 26);
  LUMOS_EXPECTS(params.a > 0 && params.b >= 0 && params.c >= 0 &&
                params.a + params.b + params.c < 1.0);
  const std::size_t n = std::size_t{1} << scale;
  const std::size_t target = n * edges_per_node;
  Rng rng(seed);
  EdgeKeySet seen(target);
  std::vector<Edge> edges;
  edges.reserve(target);
  std::size_t attempts = 0;
  const std::size_t max_attempts = target * 64;
  while (edges.size() < target && attempts < max_attempts) {
    ++attempts;
    NodeId src = 0;
    NodeId dst = 0;
    for (std::size_t bit = 0; bit < scale; ++bit) {
      const double r = rng.next_double();
      std::uint32_t quadrant;
      if (r < params.a) {
        quadrant = 0;  // (0,0)
      } else if (r < params.a + params.b) {
        quadrant = 1;  // (0,1)
      } else if (r < params.a + params.b + params.c) {
        quadrant = 2;  // (1,0)
      } else {
        quadrant = 3;  // (1,1)
      }
      src = static_cast<NodeId>((src << 1) | (quadrant >> 1));
      dst = static_cast<NodeId>((dst << 1) | (quadrant & 1));
    }
    if (src == dst) continue;
    if (seen.insert(edge_key(src, dst))) edges.push_back({src, dst});
  }
  return CsrGraph(n, std::move(edges), /*symmetrize=*/true);
}

namespace {
GraphDataset citation_standin(std::string name, std::size_t nodes, std::size_t undirected_edges,
                              std::size_t features, std::size_t classes, std::uint64_t seed) {
  GraphDataset d;
  d.name = std::move(name);
  // Citation networks are sparse with a mild power-law; an ER graph with the
  // published edge count reproduces the average degree that drives the
  // aggregate-phase workload.
  d.graph = erdos_renyi(nodes, undirected_edges, seed);
  d.feature_dim = features;
  d.class_count = classes;
  return d;
}
}  // namespace

GraphDataset synthetic_cora(std::uint64_t seed) {
  return citation_standin("Cora", 2708, 5429, 1433, 7, seed);
}

GraphDataset synthetic_citeseer(std::uint64_t seed) {
  return citation_standin("Citeseer", 3327, 4732, 3703, 6, seed);
}

GraphDataset synthetic_pubmed(std::uint64_t seed) {
  return citation_standin("Pubmed", 19717, 44338, 500, 3, seed);
}

GraphDataset synthetic_arxiv(std::uint64_t seed) {
  GraphDataset d;
  d.name = "ogbn-arxiv";
  // Published dimensions; ER keeps generation fast at this scale while
  // matching the average degree that drives the aggregate workload.
  d.graph = erdos_renyi(169343, 1166243, seed);
  d.feature_dim = 128;
  d.class_count = 40;
  return d;
}

GraphDataset tiny_dataset(std::uint64_t seed) {
  GraphDataset d;
  d.name = "Tiny";
  d.graph = erdos_renyi(32, 64, seed);
  d.feature_dim = 16;
  d.class_count = 4;
  return d;
}

std::vector<GraphDataset> gnn_dataset_zoo() {
  return {synthetic_cora(), synthetic_citeseer(), synthetic_pubmed()};
}

}  // namespace lumos::graph
