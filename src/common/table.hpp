// ASCII table emission used by the benchmark harnesses to print the
// paper's figure series in a readable, diff-friendly format.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace lumos {

// Column-aligned text table.  Cells are strings; numeric helpers format with
// a fixed precision.  The first added row is treated as the header.
class Table {
 public:
  explicit Table(std::string title = {});

  // Appends a row of preformatted cells.
  Table& add_row(std::vector<std::string> cells);

  // Formats `v` with `precision` significant-looking decimal digits, using
  // scientific notation for very large/small magnitudes.
  [[nodiscard]] static std::string num(double v, int precision = 3);

  // Renders the table with box-drawing rules to `os`.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::string& title() const noexcept { return title_; }

 private:
  std::string title_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace lumos
