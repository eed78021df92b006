#include "util/csv.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"
#include "util/atomic_file.hpp"

namespace vmap {

double parse_csv_number(const std::string& cell, std::size_t line_no,
                        const std::string& context) {
  auto fail = [&](const char* why) -> double {
    throw std::runtime_error(context + ": " + why + " at line " +
                             std::to_string(line_no) + ": '" + cell + "'");
  };
  const char* begin = cell.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return fail("bad number");
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  if (*end != '\0') return fail("trailing garbage after number");
  if (!std::isfinite(value)) return fail("non-finite value");
  return value;
}

CsvWriter::CsvWriter(std::string path, const std::vector<std::string>& header)
    : path_(std::move(path)), columns_(header.size()) {
  VMAP_REQUIRE(!header.empty(), "csv needs at least one column");
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) text_ += ',';
    text_ += header[i];
  }
  text_ += '\n';
}

void CsvWriter::add_row(std::span<const double> values) {
  VMAP_REQUIRE(values.size() == columns_, "csv row width mismatch");
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) text_ += ',';
    std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
    text_ += buf;
  }
  text_ += '\n';
}

void CsvWriter::close() {
  const Status st = write_file_atomic(path_, text_);
  if (!st.ok()) throw std::runtime_error(st.to_string());
}

}  // namespace vmap
