#pragma once
// CSV emission for experiment artifacts, plus the hardened numeric-cell
// parser every CSV *reader* in the repo must use.
//
// Benches optionally dump their series to CSV (e.g. Fig. 2 voltage traces)
// so they can be re-plotted outside the repo.

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

namespace vmap {

/// Parses one CSV numeric cell. Unlike a bare strtod/std::stod — which
/// happily accept "nan", "inf" and trailing garbage — this rejects
/// non-finite values and partially-numeric cells, so a corrupted data file
/// cannot smuggle NaN/Inf into downstream statistics. Errors carry
/// `context` and the 1-based `line_no` for diagnosis.
/// Throws std::runtime_error on any malformed or non-finite cell.
double parse_csv_number(const std::string& cell, std::size_t line_no,
                        const std::string& context);

/// Streams rows of doubles into a CSV file; throws on I/O failure.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header line.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  void add_row(const std::vector<double>& values);

  /// Flushes and closes; called by the destructor as well.
  void close();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t columns_ = 0;
};

}  // namespace vmap
