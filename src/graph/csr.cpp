#include "graph/csr.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace lumos::graph {

CsrGraph::CsrGraph(std::size_t node_count, std::vector<Edge> edges, bool symmetrize) {
  LUMOS_EXPECTS(node_count > 0);
  // Counting-sort construction (Gustavson 1978): count each row's entries, take
  // the prefix sums, scatter, then sort and dedup each row in place.  An edge
  // fills its source's row; when symmetrising, a non-loop edge also fills its
  // destination's row, so a self-loop enters once.
  row_ptr_.assign(node_count + 1, 0);
  for (const Edge& e : edges) {
    LUMOS_EXPECTS_MSG(e.src < node_count && e.dst < node_count, "edge endpoint out of range");
    ++row_ptr_[e.src + 1];
    if (symmetrize && e.src != e.dst) ++row_ptr_[e.dst + 1];
  }
  for (std::size_t v = 0; v < node_count; ++v) row_ptr_[v + 1] += row_ptr_[v];

  // Scatter with `row_ptr_[v]` as row v's cursor: afterwards it holds the end
  // of row v, which is where row v + 1 begins.
  col_idx_.resize(row_ptr_[node_count]);
  for (const Edge& e : edges) {
    col_idx_[row_ptr_[e.src]++] = e.dst;
    if (symmetrize && e.src != e.dst) col_idx_[row_ptr_[e.dst]++] = e.src;
  }

  // Sort each row and keep its first copy of every neighbour, compacting the
  // rows towards the front; `row_ptr_[v]` becomes row v's compacted start.
  std::size_t begin = 0;
  std::size_t kept = 0;
  for (std::size_t v = 0; v < node_count; ++v) {
    const std::size_t end = row_ptr_[v];
    row_ptr_[v] = kept;
    std::sort(col_idx_.begin() + static_cast<std::ptrdiff_t>(begin),
              col_idx_.begin() + static_cast<std::ptrdiff_t>(end));
    for (std::size_t i = begin; i < end; ++i) {
      if (kept == row_ptr_[v] || col_idx_[kept - 1] != col_idx_[i]) col_idx_[kept++] = col_idx_[i];
    }
    begin = end;
  }
  row_ptr_[node_count] = kept;
  col_idx_.resize(kept);

  // Degree histogram (ascending, one bucket per distinct degree): bucket the
  // degrees, then compress the occupied counts.
  std::vector<std::size_t> counts(max_degree() + 1, 0);
  for (std::size_t v = 0; v < node_count; ++v) ++counts[degree(static_cast<NodeId>(v))];
  for (std::size_t d = 0; d < counts.size(); ++d) {
    if (counts[d] > 0) degree_histogram_.push_back({d, counts[d]});
  }
}

double CsrGraph::average_degree() const noexcept {
  const std::size_t n = node_count();
  if (n == 0) return 0.0;
  return static_cast<double>(edge_count()) / static_cast<double>(n);
}

std::size_t CsrGraph::max_degree() const noexcept {
  if (!degree_histogram_.empty()) return degree_histogram_.back().degree;
  std::size_t mx = 0;
  for (std::size_t v = 0; v < node_count(); ++v) mx = std::max(mx, degree(static_cast<NodeId>(v)));
  return mx;
}

double CsrGraph::density() const noexcept {
  const double n = static_cast<double>(node_count());
  if (n == 0.0) return 0.0;
  return static_cast<double>(edge_count()) / (n * n);
}

}  // namespace lumos::graph
