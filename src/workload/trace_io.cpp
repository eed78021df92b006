#include "workload/trace_io.hpp"

#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/csv.hpp"

namespace vmap::workload {

PowerTrace::PowerTrace(std::size_t blocks) : blocks_(blocks) {
  VMAP_REQUIRE(blocks >= 1, "trace needs at least one block");
}

void PowerTrace::append(const linalg::Vector& activity) {
  VMAP_REQUIRE(activity.size() == blocks_, "activity size mismatch");
  data_.insert(data_.end(), activity.begin(), activity.end());
}

double PowerTrace::at(std::size_t step, std::size_t block) const {
  VMAP_REQUIRE(step < steps() && block < blocks_, "trace index out of range");
  return data_[step * blocks_ + block];
}

PowerTrace PowerTrace::capture(ActivityGenerator& generator,
                               std::size_t steps) {
  VMAP_REQUIRE(steps >= 1, "capture needs at least one step");
  PowerTrace trace(generator.current_activity().size());
  for (std::size_t s = 0; s < steps; ++s) trace.append(generator.step());
  return trace;
}

void PowerTrace::save_csv(const std::string& path) const {
  std::vector<std::string> header;
  for (std::size_t b = 0; b < blocks_; ++b)
    header.push_back("block_" + std::to_string(b));
  CsvWriter csv(path, header);
  for (std::size_t s = 0; s < steps(); ++s)
    csv.add_row(std::span<const double>(data_.data() + s * blocks_, blocks_));
  csv.close();
}

PowerTrace PowerTrace::load_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read trace csv: " + path);
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error("trace csv is empty: " + path);
  std::size_t blocks = 1;
  for (char c : line)
    if (c == ',') ++blocks;

  PowerTrace trace(blocks);
  linalg::Vector row(blocks);
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::stringstream ss(line);
    std::string cell;
    for (std::size_t b = 0; b < blocks; ++b) {
      if (!std::getline(ss, cell, ','))
        throw std::runtime_error("trace csv row too short at line " +
                                 std::to_string(line_no));
      // parse_csv_number also rejects NaN/Inf, which std::stod would
      // otherwise accept as valid activity.
      row[b] = parse_csv_number(cell, line_no, "trace csv");
      VMAP_REQUIRE(row[b] >= 0.0, "trace activity must be non-negative");
    }
    if (std::getline(ss, cell, ','))
      throw std::runtime_error("trace csv row too long at line " +
                               std::to_string(line_no));
    trace.append(row);
  }
  VMAP_REQUIRE(!trace.empty(), "trace csv contains no data rows");
  return trace;
}

StatusOr<PowerTrace> PowerTrace::try_load_csv(const std::string& path) {
  // Wraps (rather than replaces) load_csv: the throwing contract is part
  // of the public API and tests pin its exception types. Classification:
  // a file that cannot be opened is an I/O failure; a file that opened but
  // failed validation holds corrupt/foreign content.
  std::ifstream probe(path);
  if (!probe) return Status::Io("cannot read trace csv: " + path);
  probe.close();
  try {
    return load_csv(path);
  } catch (const std::exception& e) {
    return Status::Corruption(e.what());
  }
}

}  // namespace vmap::workload
