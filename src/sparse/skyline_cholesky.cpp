#include "sparse/skyline_cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "sparse/ordering.hpp"
#include "util/assert.hpp"

namespace vmap::sparse {

SkylineCholesky::SkylineCholesky(const CsrMatrix& a, bool use_rcm)
    : n_(a.rows()) {
  VMAP_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  VMAP_REQUIRE(n_ > 0, "cannot factorize an empty matrix");

  perm_ = use_rcm ? reverse_cuthill_mckee(a) : identity_permutation(n_);
  inv_perm_ = invert_permutation(perm_);

  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& vals = a.values();

  // Envelope extents in the permuted ordering. Symmetry of A means scanning
  // each stored entry once covers both (i, j) and (j, i).
  first_col_.assign(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) first_col_[i] = i;
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t i = inv_perm_[r];
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t j = inv_perm_[col_idx[k]];
      if (j < i) first_col_[i] = std::min(first_col_[i], j);
      if (i < j) first_col_[j] = std::min(first_col_[j], i);
    }
  }

  row_start_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i)
    row_start_[i + 1] = row_start_[i] + (i - first_col_[i]);
  values_.assign(row_start_[n_], 0.0);
  diag_.assign(n_, 0.0);

  // Scatter A (permuted) into the envelope.
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t i = inv_perm_[r];
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t j = inv_perm_[col_idx[k]];
      if (j == i) {
        diag_[i] = vals[k];
      } else if (j < i) {
        values_[row_start_[i] + (j - first_col_[i])] = vals[k];
      }
      // Upper-triangle entries are the mirror of lower ones; skip.
    }
  }

  // In-place profile factorization.
  for (std::size_t i = 0; i < n_; ++i) {
    double* li = values_.data() + row_start_[i];
    const std::size_t fi = first_col_[i];
    for (std::size_t j = fi; j < i; ++j) {
      const double* lj = values_.data() + row_start_[j];
      const std::size_t fj = first_col_[j];
      const std::size_t lo = std::max(fi, fj);
      double acc = li[j - fi];
      for (std::size_t k = lo; k < j; ++k)
        acc -= li[k - fi] * lj[k - fj];
      li[j - fi] = acc / diag_[j];
    }
    double d = diag_[i];
    for (std::size_t k = fi; k < i; ++k) d -= li[k - fi] * li[k - fi];
    if (!(d > 0.0)) throw ContractError("matrix is not positive definite");
    diag_[i] = std::sqrt(d);
  }
}

linalg::Vector SkylineCholesky::solve(const linalg::Vector& b) const {
  VMAP_REQUIRE(b.size() == n_, "rhs size mismatch in skyline solve");
  linalg::Vector x(n_);
  solve_lanes(1, b.data(), x.data());
  return x;
}

std::size_t SkylineCholesky::panel_stride(std::size_t lanes) {
  constexpr std::size_t w = linalg::kern::kPanelWidth;
  return lanes == 1 ? 1 : (lanes + w - 1) / w * w;
}

void SkylineCholesky::solve_in_factor_order(std::size_t stride,
                                            double* y) const {
  // L z = Pb, then L^T x = z, in place.
  const linalg::kern::Envelope factor{n_, first_col_.data(), row_start_.data(),
                                      values_.data(), diag_.data()};
  linalg::kern::lane_forward(factor, stride, y);
  linalg::kern::lane_backward(factor, stride, y);
}

void SkylineCholesky::solve_lanes(std::size_t lanes, const double* b,
                                  double* x) const {
  VMAP_REQUIRE(lanes >= 1, "skyline solve needs at least one lane");
  // Padding lanes solve A·0 = 0 and are dropped on the way out. Lane-outer
  // loops keep the one-lane case a plain gather.
  const std::size_t s = panel_stride(lanes);
  std::vector<double> y(n_ * s);
  for (std::size_t c = 0; c < lanes; ++c)
    for (std::size_t i = 0; i < n_; ++i) y[i * s + c] = b[perm_[i] * lanes + c];
  solve_in_factor_order(s, y.data());
  for (std::size_t c = 0; c < lanes; ++c)
    for (std::size_t i = 0; i < n_; ++i) x[perm_[i] * lanes + c] = y[i * s + c];
}

}  // namespace vmap::sparse
