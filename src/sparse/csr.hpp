#pragma once
// Compressed sparse row matrices and a triplet (COO) builder.
//
// The power-grid conductance and capacitance matrices are assembled as
// triplets while walking the mesh, then converted to CSR once. Duplicate
// (row, col) entries are summed during conversion — exactly the stamping
// semantics circuit simulators rely on.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace vmap::sparse {

/// Immutable CSR matrix (double).
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
            std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Entry lookup by binary search within the row; 0.0 if not stored.
  double at(std::size_t r, std::size_t c) const;

  /// y = A x.
  linalg::Vector multiply(const linalg::Vector& x) const;

  /// Dense copy (for small-matrix validation in tests).
  linalg::Matrix to_dense() const;

  /// True if the stored pattern and values are symmetric within `tol`.
  bool is_symmetric(double tol = 1e-12) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Accumulates (row, col, value) triplets; duplicates are summed on build.
class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols);

  /// Stamps a value; indices must be in range.
  void add(std::size_t row, std::size_t col, double value);
  std::size_t entries() const { return rows_idx_.size(); }

  /// Builds the CSR matrix. Entries with |value| below `drop_tol` after
  /// duplicate summation are dropped (0 keeps exact zeros too).
  CsrMatrix build(double drop_tol = 0.0) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> rows_idx_;
  std::vector<std::size_t> cols_idx_;
  std::vector<double> values_;
};

}  // namespace vmap::sparse
