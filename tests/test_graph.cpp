// Tests for the graph substrate: CSR invariants, generators, dataset
// stand-ins, buffer-and-partition tiling, and workload balancing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace lumos::graph {
namespace {

TEST(Csr, BuildsFromEdgeList) {
  const CsrGraph g(4, {{0, 1}, {1, 2}, {2, 3}}, /*symmetrize=*/false);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_TRUE(g.neighbors(3).empty());
}

TEST(Csr, SymmetrizeAddsReverseEdges) {
  const CsrGraph g(3, {{0, 1}, {1, 2}}, /*symmetrize=*/true);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Csr, DuplicateEdgesMerged) {
  const CsrGraph g(3, {{0, 1}, {0, 1}, {0, 1}}, false);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Csr, SelfLoopNotDoubledBySymmetrize) {
  const CsrGraph g(2, {{0, 0}}, true);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Csr, AdjacencySorted) {
  const CsrGraph g(5, {{0, 4}, {0, 1}, {0, 3}}, false);
  const auto n = g.neighbors(0);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_TRUE(n[0] < n[1] && n[1] < n[2]);
}

TEST(Csr, RowPtrIsPrefixSum) {
  const CsrGraph g(4, {{0, 1}, {0, 2}, {2, 3}}, false);
  const auto rp = g.row_ptr();
  ASSERT_EQ(rp.size(), 5u);
  EXPECT_EQ(rp[0], 0u);
  EXPECT_EQ(rp.back(), g.edge_count());
  for (std::size_t i = 1; i < rp.size(); ++i) EXPECT_GE(rp[i], rp[i - 1]);
}

TEST(Csr, OutOfRangeEdgeRejected) {
  EXPECT_THROW(CsrGraph(2, {{0, 5}}, false), lumos::InvalidArgument);
}

TEST(Csr, DegreeStatsConsistent) {
  const CsrGraph g(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}}, true);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_NEAR(g.average_degree(), 8.0 / 4.0, 1e-12);
  EXPECT_NEAR(g.density(), 8.0 / 16.0, 1e-12);
}

// The construction the counting sort replaced: symmetrise, sort the whole
// edge list, drop exact duplicates, then count the rows.
struct SortedReference {
  std::vector<std::size_t> row_ptr;
  std::vector<NodeId> col_idx;
};

SortedReference sorted_reference(std::size_t node_count, std::vector<Edge> edges,
                                 bool symmetrize) {
  if (symmetrize) {
    const std::size_t original = edges.size();
    edges.reserve(original * 2);
    for (std::size_t i = 0; i < original; ++i) {
      if (edges[i].src != edges[i].dst) edges.push_back({edges[i].dst, edges[i].src});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const Edge& a, const Edge& b) {
                            return a.src == b.src && a.dst == b.dst;
                          }),
              edges.end());
  SortedReference ref;
  ref.row_ptr.assign(node_count + 1, 0);
  for (const Edge& e : edges) ++ref.row_ptr[e.src + 1];
  for (std::size_t v = 0; v < node_count; ++v) ref.row_ptr[v + 1] += ref.row_ptr[v];
  for (const Edge& e : edges) ref.col_idx.push_back(e.dst);
  return ref;
}

TEST(Graph, CsrBuildMatchesSortedReference) {
  // Seeded edge lists mixing fresh edges, exact and reversed duplicates of
  // earlier edges, and self-loops.  Endpoints come from the first `used`
  // vertices, so the trailing ones stay isolated.
  const struct {
    std::size_t node_count;
    std::size_t used;
    std::size_t edges;
  } cases[] = {{1, 1, 0},   {1, 1, 6},   {6, 4, 0},     {2, 2, 9},
               {5, 3, 14},  {17, 17, 60}, {64, 50, 700}, {300, 290, 4000}};
  Rng rng(2024);
  for (const auto& c : cases) {
    const auto any = [&] {
      return static_cast<NodeId>(rng.next_below(static_cast<std::uint32_t>(c.used)));
    };
    std::vector<Edge> edges;
    while (edges.size() < c.edges) {
      const std::uint32_t kind = edges.empty() ? 3 : rng.next_below(6);
      if (kind == 0) {
        const Edge e = edges[rng.next_below(static_cast<std::uint32_t>(edges.size()))];
        edges.push_back(e);
      } else if (kind == 1) {
        const Edge e = edges[rng.next_below(static_cast<std::uint32_t>(edges.size()))];
        edges.push_back({e.dst, e.src});
      } else if (kind == 2) {
        const NodeId v = any();
        edges.push_back({v, v});
      } else {
        const NodeId src = any();
        edges.push_back({src, any()});
      }
    }
    for (const bool symmetrize : {false, true}) {
      SCOPED_TRACE(testing::Message() << c.node_count << " nodes, " << c.edges << " edges, "
                                      << (symmetrize ? "symmetrised" : "directed"));
      const CsrGraph g(c.node_count, edges, symmetrize);
      const SortedReference ref = sorted_reference(c.node_count, edges, symmetrize);
      EXPECT_TRUE(std::ranges::equal(g.row_ptr(), ref.row_ptr));
      EXPECT_TRUE(std::ranges::equal(g.col_idx(), ref.col_idx));
      std::vector<std::size_t> counts(c.edges * 2 + 1, 0);
      for (std::size_t v = 0; v < c.node_count; ++v) {
        ++counts[ref.row_ptr[v + 1] - ref.row_ptr[v]];
      }
      std::vector<DegreeBucket> histogram;
      for (std::size_t d = 0; d < counts.size(); ++d) {
        if (counts[d] > 0) histogram.push_back({d, counts[d]});
      }
      EXPECT_TRUE(std::ranges::equal(g.degree_histogram(), histogram,
                                     [](const DegreeBucket& a, const DegreeBucket& b) {
                                       return a.degree == b.degree && a.count == b.count;
                                     }));
    }
  }
}

TEST(ErdosRenyi, ExactEdgeCount) {
  const CsrGraph g = erdos_renyi(100, 250, 1);
  EXPECT_EQ(g.node_count(), 100u);
  EXPECT_EQ(g.edge_count(), 500u);  // symmetrised
}

TEST(ErdosRenyi, NoSelfLoopsOrDuplicates) {
  const CsrGraph g = erdos_renyi(50, 100, 2);
  for (NodeId v = 0; v < 50; ++v) {
    std::set<NodeId> seen;
    for (const NodeId u : g.neighbors(v)) {
      EXPECT_NE(u, v);
      EXPECT_TRUE(seen.insert(u).second);
    }
  }
}

TEST(ErdosRenyi, DeterministicPerSeed) {
  const CsrGraph a = erdos_renyi(64, 128, 7);
  const CsrGraph b = erdos_renyi(64, 128, 7);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; v < 64; ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

TEST(ErdosRenyi, TooManyEdgesRejected) {
  EXPECT_THROW((void)erdos_renyi(4, 100, 1), lumos::InvalidArgument);
}

TEST(Rmat, ProducesSkewedDegrees) {
  const CsrGraph g = rmat(10, 8, {}, 3);
  EXPECT_EQ(g.node_count(), 1024u);
  EXPECT_GT(g.edge_count(), 1000u);
  // Power-law-ish: the max degree far exceeds the average.
  EXPECT_GT(static_cast<double>(g.max_degree()), 5.0 * g.average_degree());
}

TEST(Rmat, UniformParamsApproachErdosRenyi) {
  const CsrGraph g = rmat(9, 8, {0.25, 0.25, 0.25}, 4);
  // With uniform quadrant probabilities the skew collapses.
  EXPECT_LT(static_cast<double>(g.max_degree()), 6.0 * g.average_degree());
}

TEST(Datasets, PublishedDimensions) {
  const GraphDataset cora = synthetic_cora();
  EXPECT_EQ(cora.graph.node_count(), 2708u);
  EXPECT_EQ(cora.graph.edge_count(), 2u * 5429u);
  EXPECT_EQ(cora.feature_dim, 1433u);
  EXPECT_EQ(cora.class_count, 7u);

  const GraphDataset cs = synthetic_citeseer();
  EXPECT_EQ(cs.graph.node_count(), 3327u);
  EXPECT_EQ(cs.feature_dim, 3703u);
  EXPECT_EQ(cs.class_count, 6u);

  const GraphDataset pm = synthetic_pubmed();
  EXPECT_EQ(pm.graph.node_count(), 19717u);
  EXPECT_EQ(pm.graph.edge_count(), 2u * 44338u);
  EXPECT_EQ(pm.feature_dim, 500u);
  EXPECT_EQ(pm.class_count, 3u);
}

TEST(Datasets, ZooHasThree) {
  EXPECT_EQ(gnn_dataset_zoo().size(), 3u);
}

TEST(Datasets, ArxivDimensions) {
  const GraphDataset ds = synthetic_arxiv();
  EXPECT_EQ(ds.graph.node_count(), 169343u);
  EXPECT_EQ(ds.graph.edge_count(), 2u * 1166243u);
  EXPECT_EQ(ds.feature_dim, 128u);
  EXPECT_EQ(ds.class_count, 40u);
}

// FNV-1a 64 over `row_ptr`, then `col_idx` widened to 64 bits, then each
// histogram bucket's degree and count, each value's bytes low first.
std::uint64_t csr_digest(const CsrGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const std::size_t p : g.row_ptr()) add(p);
  for (const NodeId u : g.col_idx()) add(u);
  for (const DegreeBucket& b : g.degree_histogram()) {
    add(b.degree);
    add(b.count);
  }
  return h;
}

TEST(PinnedBits, GraphDatasets) {
  // Recorded from the comparison-sort CSR build and the hash-set edge dedup
  // that the counting sort and the open-addressing edge set replaced.  The
  // dense Erdos-Renyi graph (1,500 of 2,016 possible edges) rejects many
  // draws as duplicates.
  const std::vector<Edge> five = {{3, 1}, {1, 3}, {0, 0}, {3, 1}, {2, 2},
                                  {4, 0}, {0, 4}, {1, 2}, {2, 2}, {0, 4}};
  const struct {
    const char* name;
    CsrGraph graph;
    std::uint64_t digest;
  } pins[] = {
      {"Cora", synthetic_cora().graph, 0xe6e5f777d4971c7dull},
      {"Citeseer", synthetic_citeseer().graph, 0x40d5b5542847b283ull},
      {"Pubmed", synthetic_pubmed().graph, 0x6d5ba6abb32d200eull},
      {"ogbn-arxiv", synthetic_arxiv().graph, 0x5074f744af78f3dbull},
      {"Tiny", tiny_dataset().graph, 0x159c2515fde11b31ull},
      {"rmat-8", rmat(8, 16, {}, 7), 0xd718c6436e421179ull},
      {"rmat-10", rmat(10, 16, {}, 7), 0x1d6b7374c2e7735dull},
      {"rmat-12", rmat(12, 16, {}, 7), 0x9695ef2e8136e1f7ull},
      {"rmat-14", rmat(14, 16, {}, 7), 0x9c869bc3e2281109ull},
      {"dense-er-64", erdos_renyi(64, 1500, 11), 0x8a2e705a4e9e2f8eull},
      {"five-symmetrised", CsrGraph(5, five, true), 0xcba5ac773ccd66afull},
      {"five-directed", CsrGraph(5, five, false), 0xc84a2a4840479563ull},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(csr_digest(pin.graph), pin.digest)
        << pin.name << std::hex << " digest " << csr_digest(pin.graph);
  }
}

TEST(Partition, CoversEveryEdgeExactlyOnce) {
  const CsrGraph g = erdos_renyi(200, 600, 5);
  const PartitionSchedule s = partition_reference(g, {8, 64});
  EXPECT_EQ(s.covered_edges(), g.edge_count());
}

TEST(Partition, BlockCountsMatchCeilDiv) {
  const CsrGraph g = erdos_renyi(100, 200, 6);
  const PartitionSchedule s = partition_reference(g, {8, 32});
  EXPECT_EQ(s.output_block_count, 13u);  // ceil(100/8)
  EXPECT_EQ(s.input_block_count, 4u);    // ceil(100/32)
}

TEST(Partition, TilesOrderedAndInRange) {
  const CsrGraph g = erdos_renyi(100, 300, 7);
  const PartitionSchedule s = partition_reference(g, {4, 16});
  for (std::size_t i = 1; i < s.tiles.size(); ++i) {
    const auto& a = s.tiles[i - 1];
    const auto& b = s.tiles[i];
    EXPECT_TRUE(a.output_block < b.output_block ||
                (a.output_block == b.output_block && a.input_block < b.input_block));
  }
  for (const auto& t : s.tiles) {
    EXPECT_LT(t.output_block, s.output_block_count);
    EXPECT_LT(t.input_block, s.input_block_count);
    EXPECT_GT(t.edge_count, 0u);
  }
}

TEST(Partition, RefetchFactorAtLeastOneWhenConnected) {
  const CsrGraph g = erdos_renyi(128, 512, 8);
  const PartitionSchedule s = partition_reference(g, {8, 32});
  EXPECT_GE(s.refetch_factor(), 1.0);
}

TEST(Partition, BiggerInputBlocksReduceRefetch) {
  const CsrGraph g = erdos_renyi(512, 4096, 9);
  const double small = partition_reference(g, {8, 32}).refetch_factor();
  const double big = partition_reference(g, {8, 256}).refetch_factor();
  EXPECT_LE(big, small);
}

TEST(Partition, TileCountMatchesReference) {
  // Block sizes take the shift (power of two) and the divide paths, and
  // give both bitset paths: 64 or fewer input blocks (one word) and more.
  // On RMAT-12, block 64 gives exactly 64 input blocks and block 63 gives
  // 66.  Lane counts run from one vertex per output block to one block
  // holding every vertex.
  const CsrGraph rmat12 = rmat(12, 8, {}, 17);  // 4096 vertices
  const CsrGraph er = erdos_renyi(300, 1200, 3);
  for (const CsrGraph* g : {&rmat12, &er}) {
    for (const std::size_t block : {1u, 3u, 16u, 50u, 63u, 64u, 100u, 2048u, 5000u}) {
      for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                                      g->node_count() + 1}) {
        EXPECT_EQ(tile_count(*g, {lanes, block}),
                  partition_reference(*g, {lanes, block}).tiles.size())
            << g->node_count() << " vertices, lanes " << lanes << ", block " << block;
      }
    }
  }
  EXPECT_EQ(tile_count(CsrGraph{}, {16, 2048}), 0u);
}

TEST(Balance, DegreeSortedNeverWorse) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const CsrGraph g = rmat(9, 8, {}, seed);
    const double naive = lane_imbalance(g, 16, /*degree_sorted=*/false);
    const double balanced = lane_imbalance(g, 16, /*degree_sorted=*/true);
    EXPECT_LE(balanced, naive + 1e-12) << "seed " << seed;
    EXPECT_GE(balanced, 1.0 - 1e-12);
  }
}

TEST(Balance, SkewedGraphsBenefitMost) {
  const CsrGraph skewed = rmat(10, 8, {}, 11);
  const double gain = lane_imbalance(skewed, 16, false) / lane_imbalance(skewed, 16, true);
  EXPECT_GT(gain, 1.02);  // balancing visibly helps a power-law graph
}

// The per-vertex greedy that `lane_imbalance(g, lanes, true)` replaced:
// counting sort by descending degree, then each vertex to the first
// least-loaded lane.
double per_vertex_greedy_imbalance(const CsrGraph& g, std::size_t lanes) {
  const std::size_t n = g.node_count();
  const std::size_t max_deg = g.max_degree();
  std::vector<std::size_t> offset(max_deg + 2, 0);
  for (std::size_t v = 0; v < n; ++v) ++offset[max_deg - g.degree(static_cast<NodeId>(v)) + 1];
  for (std::size_t d = 1; d < offset.size(); ++d) offset[d] += offset[d - 1];
  std::vector<std::size_t> order(n);
  for (std::size_t v = 0; v < n; ++v) {
    order[offset[max_deg - g.degree(static_cast<NodeId>(v))]++] = v;
  }
  std::vector<std::size_t> work(lanes, 0);
  for (const std::size_t v : order) {
    *std::min_element(work.begin(), work.end()) += g.degree(static_cast<NodeId>(v)) + 1;
  }
  const auto busiest = static_cast<double>(*std::max_element(work.begin(), work.end()));
  std::size_t total = 0;
  for (const std::size_t w : work) total += w;
  return busiest / (static_cast<double>(total) / static_cast<double>(lanes));
}

CsrGraph star(std::size_t leaves) {
  std::vector<Edge> edges;
  for (std::size_t i = 1; i <= leaves; ++i) edges.push_back({0, static_cast<NodeId>(i)});
  return CsrGraph(leaves + 1, std::move(edges), /*symmetrize=*/true);
}

TEST(Balance, BucketedGreedyEqualsPerVertexGreedy) {
  std::vector<CsrGraph> graphs;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    graphs.push_back(erdos_renyi(500, 2000, seed));
    graphs.push_back(rmat(10, 8, {}, seed));
  }
  for (GraphDataset& ds : gnn_dataset_zoo()) graphs.push_back(std::move(ds.graph));
  graphs.push_back(star(40));
  // Vertices 60-99 are isolated: 40 vertices of work 1.
  graphs.push_back(CsrGraph(100, [] {
    std::vector<Edge> edges;
    for (NodeId v = 0; v + 1 < 60; ++v) edges.push_back({v, static_cast<NodeId>(v + 1)});
    return edges;
  }(), /*symmetrize=*/true));
  for (const CsrGraph& g : graphs) {
    for (const std::size_t lanes : {1u, 2u, 3u, 7u, 16u, 64u}) {
      EXPECT_EQ(lane_imbalance(g, lanes, true), per_vertex_greedy_imbalance(g, lanes))
          << g.node_count() << " vertices, " << lanes << " lanes";
    }
  }
  // More lanes than vertices.
  for (const CsrGraph& g : {star(40), erdos_renyi(50, 100, 4)}) {
    const std::size_t lanes = g.node_count() + 3;
    EXPECT_EQ(lane_imbalance(g, lanes, true), per_vertex_greedy_imbalance(g, lanes));
  }
}

// Lane-count sweep: imbalance of the balanced assignment stays modest.
class LaneSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LaneSweep, BalancedImbalanceBounded) {
  const CsrGraph g = rmat(10, 8, {}, 13);
  const double b = lane_imbalance(g, GetParam(), true);
  EXPECT_GE(b, 1.0 - 1e-12);
  EXPECT_LT(b, 1.6);
}

INSTANTIATE_TEST_SUITE_P(Lanes, LaneSweep,
                         ::testing::Values(std::size_t{2}, std::size_t{4}, std::size_t{8},
                                           std::size_t{16}, std::size_t{64}));

}  // namespace
}  // namespace lumos::graph
