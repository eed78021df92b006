#pragma once
// Zero-mean / unit-variance normalization (paper §2.2, Step 3).
//
// Group lasso requires the regressors and responses on a common scale; the
// Normalizer learns per-variable mean and standard deviation from training
// data (one variable per row, one sample per column) and applies the
// transform. Zero-variance variables are mapped to constant zero and
// flagged, so constant sensor candidates cannot poison the solver.
//
// Learning and normalizing can read a row subset of a larger matrix in
// place (the per-core fit's candidate and block rows of the dataset), so no
// restricted copy of the data is made; the whole-matrix forms are the
// all-rows case. Every transform is normalize_row() — one variable over a
// column range — so the group-lasso Gram build can z-score the dataset's
// rows one column tile at a time, each element once, and still match the
// matrix forms bit for bit.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace vmap::core {

/// Per-row z-score transform learned from a data matrix.
class Normalizer {
 public:
  /// Learns mean/stddev per row; `data` needs >= 2 columns.
  explicit Normalizer(const linalg::Matrix& data);
  /// Learns from rows `rows` of `data`, in list order: variable i is row
  /// rows[i]. Rows may repeat; each must be < data.rows().
  Normalizer(const linalg::Matrix& data, const std::vector<std::size_t>& rows);

  std::size_t variables() const { return mean_.size(); }
  const linalg::Vector& means() const { return mean_; }
  const linalg::Vector& stddevs() const { return stddev_; }
  /// True if the row had (numerically) zero variance in training data.
  bool is_degenerate(std::size_t row) const;

  /// Z-scores columns [c0, c1) of row `row` of `data` as variable `var`
  /// into out[0, c1 - c0): (x - mean) * (1 / stddev), or zeros when the
  /// variable is degenerate.
  void normalize_row(const linalg::Matrix& data, std::size_t row,
                     std::size_t var, std::size_t c0, std::size_t c1,
                     double* out) const;

  /// z = (x - mean) / stddev, row-wise. Degenerate rows map to 0.
  linalg::Matrix normalize(const linalg::Matrix& data) const;
  /// The same from rows `rows` of `data`: row i of the result transforms
  /// row rows[i] with variable i's statistics.
  linalg::Matrix normalize(const linalg::Matrix& data,
                           const std::vector<std::size_t>& rows) const;

 private:
  linalg::Vector mean_;
  linalg::Vector stddev_;
  std::vector<bool> degenerate_;
};

}  // namespace vmap::core
