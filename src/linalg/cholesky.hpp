#pragma once
// Dense Cholesky factorization and SPD solves.
//
// Used for normal-equation OLS refits on small selected-sensor systems and
// as the reference factorization the sparse solver is validated against.

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/status.hpp"

namespace vmap::linalg {

/// Lower-triangular Cholesky factorization A = L L^T of an SPD matrix.
///
/// The throwing constructor raises vmap::ContractError if the matrix is not
/// (numerically) positive definite; try_factorize() reports the same
/// breakdown as a recoverable Status instead. The factor is stored densely;
/// only the lower triangle is meaningful.
class Cholesky {
 public:
  /// Factorizes `a` (must be square and symmetric; symmetry is trusted, the
  /// strictly-upper triangle is ignored). Throws on numerical breakdown.
  explicit Cholesky(const Matrix& a);

  /// Non-throwing factorization: Status kNumerical when a pivot goes
  /// non-positive (matrix not positive definite).
  static StatusOr<Cholesky> try_factorize(const Matrix& a);

  std::size_t dim() const { return l_.rows(); }
  const Matrix& factor() const { return l_; }

  /// Solves A x = b.
  Vector solve(const Vector& b) const;
  /// Solves A X = B column-wise.
  Matrix solve(const Matrix& b) const;

  /// log(det A) computed from the factor (stable for near-singular A).
  double log_det() const;

 private:
  Cholesky() = default;
  /// Shared factorization core; on failure l_ is unspecified.
  Status factorize(const Matrix& a);

  Matrix l_;
};

/// Solves the regularized normal equations (A^T A + ridge*I) x = A^T b.
/// With ridge = 0 this is plain least squares via normal equations; callers
/// that need orthogonal-factorization robustness should use QR instead.
Vector solve_normal_equations(const Matrix& a, const Vector& b,
                              double ridge = 0.0);

}  // namespace vmap::linalg
