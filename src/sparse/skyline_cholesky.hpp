#pragma once
// Envelope (skyline) Cholesky factorization for SPD sparse matrices.
//
// The power grid's conductance-plus-capacitance system is SPD with a
// mesh-like graph; after RCM reordering its envelope is narrow, so a
// profile factorization is both simple and fast. Fill only occurs inside
// each row's envelope, which the storage captures exactly.
//
// This is the workhorse behind both DC IR-drop solves and the prefactored
// backward-Euler transient stepping.
//
// Solves take a lane count: solve_lanes() runs several right-hand sides
// through one pass over the factor, interleaved so each envelope entry is
// loaded once for all of them (linalg::kern's lane kernels, register-
// blocked over rows and lanes). A one-lane solve is the same code at
// stride 1, and every lane of a multi-lane solve is bit-identical to
// solving that lane alone. solve_in_factor_order() is the solve without
// the permutation, for callers that keep their right-hand sides in factor
// order.

#include <cstddef>
#include <vector>

#include "linalg/vector.hpp"
#include "sparse/csr.hpp"

namespace vmap::sparse {

/// SPD factorization P A P^T = L L^T with envelope storage.
class SkylineCholesky {
 public:
  /// Factorizes `a` (must be square, symmetric, positive definite).
  /// If `use_rcm` is true a reverse Cuthill–McKee permutation is computed
  /// first; otherwise the natural ordering is used. Throws ContractError on
  /// numerical breakdown (non-positive pivot).
  explicit SkylineCholesky(const CsrMatrix& a, bool use_rcm = true);

  std::size_t dim() const { return n_; }

  /// Solves A x = b (the permutation is handled internally): the one-lane
  /// solve_lanes().
  linalg::Vector solve(const linalg::Vector& b) const;

  /// Solves A x_c = b_c for `lanes` right-hand sides at once. `b` and `x`
  /// hold dim() * lanes values with the lanes interleaved (entry i of lane
  /// c at [i * lanes + c]) and may alias. The lanes are gathered into
  /// factor order, padded to panel_stride(lanes) with zero right-hand
  /// sides, solved by solve_in_factor_order() and scattered back.
  void solve_lanes(std::size_t lanes, const double* b, double* x) const;

  /// The row stride a `lanes`-lane solve runs at: one lane stays at stride
  /// 1, more are padded to a multiple of the kernel panel width.
  static std::size_t panel_stride(std::size_t lanes);

  /// The solve itself, in place on right-hand sides already in factor
  /// order: row i of lane c at y[i * stride + c] is entry permutation()[i]
  /// of that lane. Callers that step many solves (TransientSim) assemble
  /// straight into this layout and skip solve_lanes()' gather, scatter and
  /// allocation.
  void solve_in_factor_order(std::size_t stride, double* y) const;

  /// Number of stored (envelope) entries in L, a measure of fill.
  std::size_t envelope_size() const { return values_.size(); }

  /// The permutation used (new index -> old index).
  const std::vector<std::size_t>& permutation() const { return perm_; }
  /// Its inverse (old index -> new index): the factor row of each entry.
  const std::vector<std::size_t>& inverse_permutation() const {
    return inv_perm_;
  }

 private:
  // Row i of L occupies columns [first_col_[i], i], stored contiguously in
  // values_ starting at row_start_[i]; diag_[i] caches L_ii.
  std::size_t n_ = 0;
  std::vector<std::size_t> perm_;      // new -> old
  std::vector<std::size_t> inv_perm_;  // old -> new
  std::vector<std::size_t> first_col_;
  std::vector<std::size_t> row_start_;
  std::vector<double> values_;  // strictly-lower envelope entries
  std::vector<double> diag_;
};

}  // namespace vmap::sparse
