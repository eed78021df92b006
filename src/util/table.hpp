#pragma once
// Console table formatting for the experiment harnesses.
//
// Every bench binary reproduces a paper table/figure as text; TablePrinter
// gives them a consistent, aligned, pipe-delimited look that is easy to diff
// against EXPERIMENTS.md.

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace vmap {

/// Builds an aligned text table: set a header, append rows, print.
///
/// Cells are strings; helpers format numbers with fixed precision so repeated
/// runs produce byte-identical output (given identical inputs).
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends a row; must match the header width.
  void add_row(std::vector<std::string> cells);

  /// Renders with column alignment to the stream.
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

  /// Fixed-precision float formatting ("0.0512").
  static std::string fmt(double value, int precision = 4);
  /// Scientific formatting ("1.23e-05").
  static std::string sci(double value, int precision = 2);
  static std::string fmt(std::size_t value);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vmap
