#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace lumos {

Table::Table(std::string title) : title_(std::move(title)) {}

Table& Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  char buf[64];
  const double mag = std::fabs(v);
  if (v != 0.0 && (mag >= 1e7 || mag < 1e-3)) {
    std::snprintf(buf, sizeof buf, "%.*e", precision, v);
  } else {
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  }
  return buf;
}

void Table::print(std::ostream& os) const {
  if (rows_.empty()) return;
  std::size_t cols = 0;
  for (const auto& row : rows_) cols = std::max(cols, row.size());
  std::vector<std::size_t> widths(cols, 0);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  const auto hline = [&] {
    os << '+';
    for (std::size_t c = 0; c < cols; ++c) {
      for (std::size_t i = 0; i < widths[c] + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  hline();
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << '|';
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string& cell = c < rows_[r].size() ? rows_[r][c] : std::string{};
      os << ' ' << cell;
      for (std::size_t i = cell.size(); i < widths[c] + 1; ++i) os << ' ';
      os << '|';
    }
    os << '\n';
    if (r == 0) hline();  // rule under the header
  }
  hline();
}

}  // namespace lumos
