// Buffer-and-partition scheduling for GHOST's aggregate phase.
//
// Paper Section V.D: "this technique dictates splitting the input graph into
// blocks of N and V where the aggregate block then is composed of N edge
// control units, V gather units, and V reduce units.  Each execution lane is
// assigned one output node per cycle while N input nodes are fetched by the
// edge control units."
//
// The partitioner tiles the vertex set into output blocks of V (one vertex
// per execution lane) and input blocks of N (vertices resident in the
// on-chip input buffer).  For every (output block, input block) pair that
// contains at least one edge, the schedule records how many edges it covers;
// the accelerator model turns those tiles into buffer traffic and reduce-unit
// work.  The re-fetch factor — how many times the average input vertex is
// re-loaded — is the quantity the optimisation suppresses.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace lumos::graph {

struct PartitionConfig {
  std::size_t lane_count = 8;          // V: output vertices processed per step
  std::size_t input_block_size = 512;  // N: input vertices buffered on-chip
};

// One schedulable tile: the edges between an output block and an input block.
struct PartitionTile {
  std::size_t output_block = 0;
  std::size_t input_block = 0;
  std::size_t edge_count = 0;
};

struct PartitionSchedule {
  PartitionConfig config;
  std::size_t output_block_count = 0;
  std::size_t input_block_count = 0;
  std::vector<PartitionTile> tiles;  // ordered by output block, then input block

  // Total edges covered (must equal the graph's edge count).
  [[nodiscard]] std::size_t covered_edges() const noexcept;
  // Average number of times each input block is (re)loaded across output
  // blocks; 1.0 means perfect reuse.
  [[nodiscard]] double refetch_factor() const noexcept;
};

// Tiles `graph` under `config` with one ordered map of (output block,
// input block) edge counts.  Vertices are assigned to blocks by index
// (contiguous ranges), matching the paper's streaming layout.  The schedule
// backs the tests, the block-size ablation and bench_kernels' seed timing;
// the GHOST estimate needs only its size, which `tile_count` gives.
[[nodiscard]] PartitionSchedule partition_reference(const CsrGraph& graph,
                                                    const PartitionConfig& config);

// `partition_reference(graph, config).tiles.size()` without building the
// schedule: per output block, a bitset of the input blocks its edges touch,
// then a popcount.  An output block's edges are one contiguous run of the
// CSR column array, so this is one pass over it, O(E + V / lane_count), and
// with 64 or fewer input blocks the bitset is one register word.
[[nodiscard]] std::size_t tile_count(const CsrGraph& graph, const PartitionConfig& config);

// Workload-balance statistic for lane assignment: the ratio of the busiest
// lane's edge work to the average over lanes (lower is better; 1.0 is
// perfectly balanced).  A vertex's work is its degree plus one.  Without
// `degree_sorted`, vertices go to lanes round-robin by index.  GHOST's
// workload balancing (`degree_sorted`) is the longest-processing-time greedy
// (Graham, SIAM J. Appl. Math. 1969): heaviest vertex first, each to the
// least-loaded lane.  It runs per degree bucket of
// `CsrGraph::degree_histogram()`, so its cost grows with the distinct
// degrees and the lanes, not with V.
[[nodiscard]] double lane_imbalance(const CsrGraph& graph, std::size_t lane_count,
                                    bool degree_sorted);

}  // namespace lumos::graph
