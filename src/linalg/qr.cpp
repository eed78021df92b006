#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace vmap::linalg {

QR::QR(const Matrix& a) : qr_(a), tau_(a.cols(), 0.0) {
  VMAP_REQUIRE(a.rows() >= a.cols(),
               "QR requires rows >= cols (tall or square matrix)");
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();

  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector for column k below the diagonal.
    double norm_x = 0.0;
    for (std::size_t i = k; i < m; ++i) norm_x += qr_(i, k) * qr_(i, k);
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) {
      tau_[k] = 0.0;  // column already zero; R_kk = 0 marks rank deficiency
      continue;
    }
    const double alpha = qr_(k, k) >= 0.0 ? -norm_x : norm_x;
    // v = x - alpha*e1, normalized so v[0] = 1 (stored implicitly).
    const double v0 = qr_(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) qr_(i, k) /= v0;
    tau_[k] = -v0 / alpha;  // tau = 2 / (v^T v) with v[0]=1 scaling
    qr_(k, k) = alpha;      // R_kk

    // Apply the reflector to the remaining columns: A <- (I - tau v v^T) A.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = qr_(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * qr_(i, j);
      s *= tau_[k];
      qr_(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) qr_(i, j) -= s * qr_(i, k);
    }
  }
}

void QR::apply_qt(Vector& v) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  VMAP_REQUIRE(v.size() == m, "vector size mismatch in apply_qt");
  for (std::size_t k = 0; k < n; ++k) {
    if (tau_[k] == 0.0) continue;
    double s = v[k];
    for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * v[i];
    s *= tau_[k];
    v[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) v[i] -= s * qr_(i, k);
  }
}

StatusOr<Vector> QR::try_solve(const Vector& b) const {
  const std::size_t n = qr_.cols();
  Vector y = b;
  apply_qt(y);
  // Back substitution on R x = (Q^T b)[0..n).
  Vector x(n);
  const double max_diag = [&] {
    double mx = 0.0;
    for (std::size_t i = 0; i < n; ++i) mx = std::max(mx, std::abs(qr_(i, i)));
    return mx;
  }();
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= qr_(ii, j) * x[j];
    const double rii = qr_(ii, ii);
    if (!(std::abs(rii) > 1e-13 * std::max(max_diag, 1.0)))
      return Status::Numerical(
          "rank-deficient least-squares system (|R_" + std::to_string(ii) +
          "," + std::to_string(ii) + "| = " + std::to_string(std::abs(rii)) +
          ")");
    x[ii] = acc / rii;
  }
  return x;
}

Vector QR::solve(const Vector& b) const {
  StatusOr<Vector> x = try_solve(b);
  if (!x.ok()) throw ContractError(x.status().to_string());
  return std::move(x).value();
}

double QR::condition_estimate() const {
  const std::size_t n = qr_.cols();
  double mx = 0.0, mn = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double rii = std::abs(qr_(i, i));
    mx = std::max(mx, rii);
    mn = std::min(mn, rii);
  }
  if (!(mn > 0.0)) return std::numeric_limits<double>::infinity();
  return mx / mn;
}

Matrix QR::r() const {
  const std::size_t n = qr_.cols();
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) out(i, j) = qr_(i, j);
  return out;
}

Matrix QR::thin_q() const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  Matrix q(m, n);
  // Apply reflectors in reverse to the first n columns of the identity.
  for (std::size_t c = 0; c < n; ++c) {
    Vector e(m);
    e[c] = 1.0;
    for (std::size_t kk = n; kk-- > 0;) {
      if (tau_[kk] == 0.0) continue;
      double s = e[kk];
      for (std::size_t i = kk + 1; i < m; ++i) s += qr_(i, kk) * e[i];
      s *= tau_[kk];
      e[kk] -= s;
      for (std::size_t i = kk + 1; i < m; ++i) e[i] -= s * qr_(i, kk);
    }
    q.set_col(c, e);
  }
  return q;
}

std::size_t QR::rank(double rel_tol) const {
  const std::size_t n = qr_.cols();
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_diag = std::max(max_diag, std::abs(qr_(i, i)));
  if (max_diag == 0.0) return 0;
  std::size_t r = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (std::abs(qr_(i, i)) > rel_tol * max_diag) ++r;
  return r;
}

Vector lstsq(const Matrix& a, const Vector& b) {
  VMAP_REQUIRE(a.rows() == b.size(), "lstsq shape mismatch");
  return QR(a).solve(b);
}

}  // namespace vmap::linalg
