#include "graph/partition.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <utility>

#include "common/error.hpp"

namespace lumos::graph {

std::size_t PartitionSchedule::covered_edges() const noexcept {
  std::size_t total = 0;
  for (const PartitionTile& t : tiles) total += t.edge_count;
  return total;
}

double PartitionSchedule::refetch_factor() const noexcept {
  if (input_block_count == 0) return 0.0;
  return static_cast<double>(tiles.size()) / static_cast<double>(input_block_count);
}

PartitionSchedule partition_reference(const CsrGraph& graph, const PartitionConfig& config) {
  LUMOS_EXPECTS(config.lane_count >= 1);
  LUMOS_EXPECTS(config.input_block_size >= 1);
  const std::size_t n = graph.node_count();
  PartitionSchedule s;
  s.config = config;
  s.output_block_count = (n + config.lane_count - 1) / config.lane_count;
  s.input_block_count = (n + config.input_block_size - 1) / config.input_block_size;

  // Count edges per (output block, input block) pair.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> tile_edges;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t ob = v / config.lane_count;
    for (const NodeId u : graph.neighbors(static_cast<NodeId>(v))) {
      const std::size_t ib = u / config.input_block_size;
      ++tile_edges[{ob, ib}];
    }
  }
  s.tiles.reserve(tile_edges.size());
  for (const auto& [key, count] : tile_edges) {
    s.tiles.push_back({key.first, key.second, count});
  }
  LUMOS_ENSURES(s.covered_edges() == graph.edge_count());
  return s;
}

namespace {

// `tile_count` for one input-block map: `block_of(u)` is the input block of
// vertex `u`, below `input_blocks`.  Output block `ob` owns the vertices
// [ob * lanes, (ob + 1) * lanes), whose edges are one run of the column
// array.
template <typename BlockOf>
std::size_t count_tiles(const CsrGraph& graph, std::size_t lanes, std::size_t input_blocks,
                        BlockOf block_of) {
  const std::size_t n = graph.node_count();
  const std::span<const std::size_t> rows = graph.row_ptr();
  const std::span<const NodeId> cols = graph.col_idx();
  std::size_t tiles = 0;
  if (input_blocks <= 64) {
    for (std::size_t v = 0; v < n; v += lanes) {
      const std::size_t end = rows[std::min(n, v + lanes)];
      std::uint64_t touched = 0;
      for (std::size_t e = rows[v]; e < end; ++e) {
        touched |= std::uint64_t{1} << block_of(cols[e]);
      }
      tiles += static_cast<std::size_t>(std::popcount(touched));
    }
    return tiles;
  }
  std::vector<std::uint64_t> touched((input_blocks + 63) / 64, 0);
  for (std::size_t v = 0; v < n; v += lanes) {
    const std::size_t begin = rows[v];
    const std::size_t end = rows[std::min(n, v + lanes)];
    for (std::size_t e = begin; e < end; ++e) {
      const std::size_t ib = block_of(cols[e]);
      touched[ib / 64] |= std::uint64_t{1} << (ib % 64);
    }
    // A second pass over the same edges counts each touched word once and
    // clears it for the next output block.
    for (std::size_t e = begin; e < end; ++e) {
      tiles += static_cast<std::size_t>(
          std::popcount(std::exchange(touched[block_of(cols[e]) / 64], 0)));
    }
  }
  return tiles;
}

}  // namespace

std::size_t tile_count(const CsrGraph& graph, const PartitionConfig& config) {
  LUMOS_EXPECTS(config.lane_count >= 1);
  LUMOS_EXPECTS(config.input_block_size >= 1);
  const std::size_t bs = config.input_block_size;
  const std::size_t input_blocks = (graph.node_count() + bs - 1) / bs;
  // The per-edge divide becomes a shift when the block size is a power of
  // two (every shipped configuration).
  if (std::has_single_bit(bs)) {
    const int shift = std::countr_zero(bs);
    return count_tiles(graph, config.lane_count, input_blocks,
                       [shift](NodeId u) { return std::size_t{u} >> shift; });
  }
  return count_tiles(graph, config.lane_count, input_blocks,
                     [bs](NodeId u) { return std::size_t{u} / bs; });
}

namespace {

// Places `count` vertices of work `weight` by the greedy, each on a
// least-loaded lane.  Only the multiset of lane loads matters to
// `lane_imbalance`, and which of several equally loaded lanes takes a vertex
// does not change that multiset.
void place_bucket(std::vector<std::size_t>& loads, std::size_t weight, std::size_t count) {
  if (count < loads.size()) {
    for (std::size_t i = 0; i < count; ++i) {
      *std::min_element(loads.begin(), loads.end()) += weight;
    }
    return;
  }
  // A lane of load l takes its vertices at loads l, l + weight, l + 2 weight,
  // ..., so the greedy takes the `count` smallest of these values over all
  // lanes.  Binary-search the threshold t, the smallest value with `count`
  // of them at or below it.  With r = ceil(count / lanes) - 1, below
  // lightest + r * weight every lane has at most r values, and at
  // heaviest + r * weight every lane has at least r + 1, so t lies in a
  // window as wide as the loads' spread.
  const auto at_or_below = [&](std::size_t t) {
    std::size_t values = 0;
    for (const std::size_t l : loads) {
      if (l <= t) values += (t - l) / weight + 1;
    }
    return values;
  };
  const auto [lightest, heaviest] = std::minmax_element(loads.begin(), loads.end());
  const std::size_t rounds = (count + loads.size() - 1) / loads.size() - 1;
  std::size_t lo = *lightest + rounds * weight;
  std::size_t hi = *heaviest + rounds * weight;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at_or_below(mid) >= count) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::size_t t = lo;
  // Every value below t is taken.  That leaves each such lane at t or above,
  // and at exactly t when t is one of its values; the rest of the bucket
  // takes value t on as many of the lanes at t.
  std::size_t left = count;
  for (std::size_t& l : loads) {
    if (l < t) {
      const std::size_t taken = (t - 1 - l) / weight + 1;
      l += taken * weight;
      left -= taken;
    }
  }
  for (std::size_t& l : loads) {
    if (left == 0) break;
    if (l == t) {
      l += weight;
      --left;
    }
  }
}

}  // namespace

double lane_imbalance(const CsrGraph& graph, std::size_t lane_count, bool degree_sorted) {
  LUMOS_EXPECTS(lane_count >= 1);
  const std::size_t n = graph.node_count();
  if (n == 0) return 1.0;

  // +1 on every degree: the combine work per vertex.
  std::vector<std::size_t> lane_work(lane_count, 0);
  if (degree_sorted) {
    // Heaviest first; the histogram ascends by degree.
    const std::span<const DegreeBucket> hist = graph.degree_histogram();
    for (auto b = hist.rbegin(); b != hist.rend(); ++b) {
      place_bucket(lane_work, b->degree + 1, b->count);
    }
  } else {
    for (std::size_t v = 0; v < n; ++v) {
      lane_work[v % lane_count] += graph.degree(static_cast<NodeId>(v)) + 1;
    }
  }
  const auto busiest = static_cast<double>(*std::max_element(lane_work.begin(), lane_work.end()));
  const double total = static_cast<double>(
      std::accumulate(lane_work.begin(), lane_work.end(), std::size_t{0}));
  const double average = total / static_cast<double>(lane_count);
  return average > 0.0 ? busiest / average : 1.0;
}

}  // namespace lumos::graph
