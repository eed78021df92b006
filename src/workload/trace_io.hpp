#pragma once
// Per-block activity traces: capture and CSV interchange.
//
// The synthetic ActivityGenerator is a stand-in for GEM5+McPAT power
// traces. Real traces can be imported here (CSV: one column per block,
// one row per time step); conversely, synthetic traces can be captured
// and exported for inspection or external tooling.

#include <cstddef>
#include <string>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/status.hpp"
#include "workload/activity.hpp"

namespace vmap::workload {

/// An immutable-once-built table of per-step block activity.
class PowerTrace {
 public:
  /// Empty trace over `blocks` blocks.
  explicit PowerTrace(std::size_t blocks);

  std::size_t blocks() const { return blocks_; }
  std::size_t steps() const { return data_.size() / blocks_; }
  bool empty() const { return data_.empty(); }

  /// Appends one step of activity (size must equal blocks()).
  void append(const linalg::Vector& activity);

  /// Single entry access.
  double at(std::size_t step, std::size_t block) const;

  /// Captures `steps` steps from a generator.
  static PowerTrace capture(ActivityGenerator& generator, std::size_t steps);

  /// CSV interchange: header "block_0,...,block_{K-1}", one row per step,
  /// written whole by CsvWriter (atomically, every value exact).
  /// The throwing variants raise std::runtime_error (malformed file /
  /// failed write) or ContractError (negative activity); try_load_csv maps
  /// those to Status kIo (filesystem) / kCorruption (content) so batch
  /// importers can skip bad traces instead of aborting.
  void save_csv(const std::string& path) const;
  static PowerTrace load_csv(const std::string& path);
  static StatusOr<PowerTrace> try_load_csv(const std::string& path);

 private:
  std::size_t blocks_;
  std::vector<double> data_;  // row-major [step][block]
};

}  // namespace vmap::workload
