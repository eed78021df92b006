#pragma once
// Unconstrained OLS refit on the selected sensors (paper §2.3, Eq. 17-20).
//
// Group-lasso coefficients are shrunk by the budget constraint (the paper's
// two-sensor example in §2.3), so after selection the prediction model is
// re-learned without any penalty:
//     min_{α,c} ||F − α X^S − C||_F
// solved response-by-response through a Householder QR of the augmented
// design [X^Sᵀ | 1]. Predictions run in raw voltage units — no
// normalization is needed at runtime.
//
// The responses are read in place, as a list of F's rows: each one is
// solved from a single N-long buffer, and the training RMSE is summed
// element by element in predict()'s order, so the per-core refit holds no
// K x N copy of F (only the rare ridge fallback builds its targets).

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/resilience.hpp"

namespace vmap::core {

/// Linear predictor f* = α x_S + c learned by least squares.
class OlsModel {
 public:
  /// Fits from training data: `x_selected` is Q x N (selected sensor rows of
  /// X), `f` is K x N. Requires N >= Q + 1.
  ///
  /// The happy path solves through QR. When the design is numerically rank
  /// deficient (duplicate or constant sensor rows), the fit falls back to a
  /// ridge-jittered normal-equation refit with an escalating jitter instead
  /// of failing; the fallback (and the design's condition estimate) is
  /// recorded into `report` when one is supplied. Throws ContractError only
  /// when even the largest jitter cannot produce an SPD system.
  explicit OlsModel(const linalg::Matrix& x_selected, const linalg::Matrix& f,
                    ResilienceReport* report = nullptr,
                    const char* stage = "ols_refit");
  /// The same fit with response k read in place from row f_rows[k] of `f`
  /// (f has N columns); bit-identical to fitting on f.select_rows(f_rows).
  OlsModel(const linalg::Matrix& x_selected, const linalg::Matrix& f,
           const std::vector<std::size_t>& f_rows,
           ResilienceReport* report = nullptr,
           const char* stage = "ols_refit");

  /// True when the ridge fallback (rather than plain QR) produced the fit.
  bool used_ridge_fallback() const { return used_ridge_fallback_; }

  std::size_t sensors() const { return alpha_.cols(); }
  std::size_t responses() const { return alpha_.rows(); }

  /// Coefficient matrix α (K x Q).
  const linalg::Matrix& alpha() const { return alpha_; }
  /// Intercepts c (K).
  const linalg::Vector& intercept() const { return intercept_; }

  /// Predicts all K responses from one sensor reading vector (size Q).
  linalg::Vector predict(const linalg::Vector& x_sensors) const;
  /// Column-wise prediction: input Q x N, output K x N.
  linalg::Matrix predict(const linalg::Matrix& x_sensors) const;

  /// Training root-mean-square residual (per response entry).
  double train_rmse() const { return train_rmse_; }

 private:
  linalg::Matrix alpha_;
  linalg::Vector intercept_;
  double train_rmse_ = 0.0;
  bool used_ridge_fallback_ = false;
};

/// Aggregated relative prediction error (Table 1's metric):
/// mean over all entries of |f*_k − f_k| / |f_k|.
double relative_error(const linalg::Matrix& f_true,
                      const linalg::Matrix& f_pred);

/// Root-mean-square error over all entries.
double rmse(const linalg::Matrix& f_true, const linalg::Matrix& f_pred);

}  // namespace vmap::core
