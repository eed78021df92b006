#include "linalg/cholesky.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace vmap::linalg {

Status Cholesky::factorize(const Matrix& a) {
  VMAP_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  l_ = Matrix(a.rows(), a.cols());
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    if (!(diag > 0.0))
      return Status::Numerical(
          "matrix is not positive definite (pivot " + std::to_string(j) +
          " = " + std::to_string(diag) + ")");
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      const double* li = l_.row_data(i);
      const double* lj = l_.row_data(j);
      for (std::size_t k = 0; k < j; ++k) acc -= li[k] * lj[k];
      l_(i, j) = acc / ljj;
    }
  }
  return Status::Ok();
}

Cholesky::Cholesky(const Matrix& a) {
  const Status status = factorize(a);
  if (!status.ok()) throw ContractError(status.to_string());
}

StatusOr<Cholesky> Cholesky::try_factorize(const Matrix& a) {
  Cholesky chol;
  Status status = chol.factorize(a);
  if (!status.ok()) return status;
  return chol;
}

Vector Cholesky::solve(const Vector& b) const {
  const std::size_t n = dim();
  VMAP_REQUIRE(b.size() == n, "rhs size mismatch in Cholesky::solve");
  // Forward substitution L y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    const double* li = l_.row_data(i);
    for (std::size_t k = 0; k < i; ++k) acc -= li[k] * y[k];
    y[i] = acc / li[i];
  }
  // Back substitution L^T x = y.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l_(k, ii) * x[k];
    x[ii] = acc / l_(ii, ii);
  }
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  VMAP_REQUIRE(b.rows() == dim(), "rhs rows mismatch in Cholesky::solve");
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c)
    x.set_col(c, solve(b.col(c)));
  return x;
}

double Cholesky::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

Vector solve_normal_equations(const Matrix& a, const Vector& b, double ridge) {
  VMAP_REQUIRE(a.rows() == b.size(), "shape mismatch in normal equations");
  VMAP_REQUIRE(ridge >= 0.0, "ridge must be non-negative");
  Matrix ata = matmul_at_b(a, a);
  for (std::size_t i = 0; i < ata.rows(); ++i) ata(i, i) += ridge;
  Vector atb = matvec_t(a, b);
  return Cholesky(ata).solve(atb);
}

}  // namespace vmap::linalg
