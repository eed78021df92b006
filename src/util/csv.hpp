#pragma once
// CSV emission for experiment artifacts, plus the hardened numeric-cell
// parser every CSV *reader* in the repo must use.
//
// Benches optionally dump their series to CSV (e.g. Fig. 2 voltage traces)
// so they can be re-plotted outside the repo, and activity traces are
// exported as CSV (workload/trace_io.hpp). Both go through CsvWriter, which
// builds the whole text in memory and publishes it with write_file_atomic:
// a crash or a failed write leaves the previous file or the new one under
// the real name, never a prefix.

#include <cstddef>
#include <span>
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

/// Collects rows of doubles, each cell printed with %.17g (which reads
/// back as the same double), and writes the file at close().
class CsvWriter {
 public:
  /// Starts the text with the header line. Nothing touches `path` until
  /// close(); a writer destroyed without it writes nothing.
  CsvWriter(std::string path, const std::vector<std::string>& header);

  void add_row(std::span<const double> values);

  /// Writes the file with write_file_atomic (tmp, fsync, rename, directory
  /// fsync). Throws std::runtime_error when that fails.
  void close();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string text_;
  std::size_t columns_ = 0;
};

}  // namespace vmap
