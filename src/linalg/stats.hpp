#pragma once
// Sample statistics over data matrices.
//
// Convention used throughout vmap: a data matrix holds one *variable per
// row* and one *sample per column*, matching the paper's X (M x N) and
// F (K x N) layout in Eq. (6).

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace vmap::linalg {

/// Mean and variance of a flat sample.
struct Moments {
  double mean = 0.0;
  double variance = 0.0;  // unbiased
};
Moments moments(const Vector& sample);

/// Moments of `n` >= 2 contiguous samples, e.g. one row of a data matrix.
/// Each sum is one accumulator over the samples in ascending order; the
/// mean is computed once and centres the variance pass.
Moments moments(const double* samples, std::size_t n);

/// Mean of each row (variable) across columns (samples).
Vector row_means(const Matrix& data);

/// Sample covariance matrix (variables x variables), unbiased.
Matrix covariance(const Matrix& data);

/// Pearson correlation matrix. Rows with zero variance yield zero
/// correlation entries (not NaN) so downstream selection logic can treat
/// constant candidates as uninformative.
Matrix correlation(const Matrix& data);

/// Pearson correlation between two equal-length vectors (samples).
/// Returns 0 when either has zero variance.
double pearson(const Vector& a, const Vector& b);

}  // namespace vmap::linalg
