#include "util/table.hpp"

#include <algorithm>
#include <cstdio>

#include "util/assert.hpp"

namespace vmap {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {
  VMAP_REQUIRE(!header_.empty(), "table needs at least one column");
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  VMAP_REQUIRE(cells.size() == header_.size(),
               "row width must match header width");
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << row[c] << std::string(width[c] - row[c].size(), ' ')
         << " |";
    }
    os << '\n';
  };

  emit_row(header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c)
    os << std::string(width[c] + 2, '-') << "|";
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
}

std::string TablePrinter::fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::sci(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, value);
  return buf;
}

std::string TablePrinter::fmt(std::size_t value) {
  return std::to_string(value);
}

}  // namespace vmap
