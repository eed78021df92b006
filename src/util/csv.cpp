#include "util/csv.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/assert.hpp"

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

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : path_(path), out_(path), columns_(header.size()) {
  VMAP_REQUIRE(!header.empty(), "csv needs at least one column");
  if (!out_) throw std::runtime_error("cannot open csv file: " + path);
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) out_ << ',';
    out_ << header[i];
  }
  out_ << '\n';
}

void CsvWriter::add_row(const std::vector<double>& values) {
  VMAP_REQUIRE(values.size() == columns_, "csv row width mismatch");
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out_ << ',';
    std::snprintf(buf, sizeof(buf), "%.9g", values[i]);
    out_ << buf;
  }
  out_ << '\n';
}

void CsvWriter::close() {
  if (out_.is_open()) {
    out_.flush();
    out_.close();
  }
}

}  // namespace vmap
