#pragma once
// Householder QR factorization and least-squares solves.
//
// The OLS refit (paper Eq. 17) is solved through QR rather than normal
// equations: the selected-sensor design matrices can be ill-conditioned
// (neighbouring grid nodes are nearly collinear), and QR keeps the
// conditioning of A rather than A^T A.

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/status.hpp"

namespace vmap::linalg {

/// Householder QR of an m x n matrix with m >= n.
///
/// Stores the factorization compactly (reflectors in the lower part, R in the
/// upper triangle). Provides least-squares solves min ||A x - b||_2.
class QR {
 public:
  explicit QR(const Matrix& a);

  std::size_t rows() const { return qr_.rows(); }
  std::size_t cols() const { return qr_.cols(); }

  /// Least-squares solution of A x = b. Throws if A is rank deficient
  /// (numerically zero diagonal of R).
  Vector solve(const Vector& b) const;

  /// Non-throwing least-squares solve: Status kNumerical on a rank-
  /// deficient system instead of an exception, so callers can fall back
  /// (e.g. to a ridge-jittered normal-equation refit).
  StatusOr<Vector> try_solve(const Vector& b) const;

  /// Cheap 2-norm condition estimate from the R diagonal:
  /// max|R_ii| / min|R_ii| (a lower bound on cond_2(A); +inf when some
  /// R_ii is exactly zero).
  double condition_estimate() const;

  /// Explicit R factor (n x n upper triangular).
  Matrix r() const;
  /// Explicit thin Q factor (m x n with orthonormal columns).
  Matrix thin_q() const;

  /// Numerical rank estimate: count of |R_ii| > tol * max|R_jj|.
  std::size_t rank(double rel_tol = 1e-12) const;

 private:
  void apply_qt(Vector& v) const;  // v <- Q^T v

  Matrix qr_;            // reflectors below diagonal, R on/above
  std::vector<double> tau_;
};

/// Convenience: least-squares solution of min ||A x - b||_2 via QR.
Vector lstsq(const Matrix& a, const Vector& b);

}  // namespace vmap::linalg
