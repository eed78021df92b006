#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace vmap::sparse {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  VMAP_REQUIRE(row_ptr_.size() == rows_ + 1, "row_ptr size must be rows+1");
  VMAP_REQUIRE(col_idx_.size() == values_.size(),
               "col_idx and values must align");
  VMAP_REQUIRE(row_ptr_.front() == 0 && row_ptr_.back() == values_.size(),
               "row_ptr must span all stored entries");
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  VMAP_REQUIRE(r < rows_ && c < cols_, "csr index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

linalg::Vector CsrMatrix::multiply(const linalg::Vector& x) const {
  VMAP_REQUIRE(x.size() == cols_, "spmv input size mismatch");
  linalg::Vector y(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += values_[k] * x[col_idx_[k]];
    y[r] = acc;
  }
  return y;
}

linalg::Matrix CsrMatrix::to_dense() const {
  linalg::Matrix dense(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      dense(r, col_idx_[k]) = values_[k];
  return dense;
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      if (std::abs(values_[k] - at(c, r)) > tol) return false;
    }
  }
  return true;
}

TripletBuilder::TripletBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {}

void TripletBuilder::add(std::size_t row, std::size_t col, double value) {
  VMAP_REQUIRE(row < rows_ && col < cols_, "triplet index out of range");
  rows_idx_.push_back(row);
  cols_idx_.push_back(col);
  values_.push_back(value);
}

CsrMatrix TripletBuilder::build(double drop_tol) const {
  // Count entries per row, sort each row's entries by column, merge dups.
  std::vector<std::size_t> order(rows_idx_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rows_idx_[a] != rows_idx_[b]) return rows_idx_[a] < rows_idx_[b];
    return cols_idx_[a] < cols_idx_[b];
  });

  std::vector<std::size_t> row_ptr(rows_ + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(order.size());
  values.reserve(order.size());

  std::size_t i = 0;
  while (i < order.size()) {
    const std::size_t r = rows_idx_[order[i]];
    const std::size_t c = cols_idx_[order[i]];
    double acc = 0.0;
    while (i < order.size() && rows_idx_[order[i]] == r &&
           cols_idx_[order[i]] == c) {
      acc += values_[order[i]];
      ++i;
    }
    if (std::abs(acc) >= drop_tol) {
      col_idx.push_back(c);
      values.push_back(acc);
      ++row_ptr[r + 1];
    }
  }
  for (std::size_t r = 0; r < rows_; ++r) row_ptr[r + 1] += row_ptr[r];
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace vmap::sparse
