#include "core/ols_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"
#include "util/assert.hpp"

namespace vmap::core {

namespace {

std::vector<std::size_t> all_rows(const linalg::Matrix& m) {
  std::vector<std::size_t> rows(m.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

}  // namespace

OlsModel::OlsModel(const linalg::Matrix& x_selected, const linalg::Matrix& f,
                   ResilienceReport* report, const char* stage)
    : OlsModel(x_selected, f, all_rows(f), report, stage) {}

OlsModel::OlsModel(const linalg::Matrix& x_selected, const linalg::Matrix& f,
                   const std::vector<std::size_t>& f_rows,
                   ResilienceReport* report, const char* stage) {
  const std::size_t q = x_selected.rows();
  const std::size_t n = x_selected.cols();
  const std::size_t k = f_rows.size();
  VMAP_REQUIRE(f.cols() == n, "X^S and F must share the sample axis");
  VMAP_REQUIRE(n >= q + 1, "need at least Q+1 samples to fit Q sensors");
  VMAP_REQUIRE(k > 0, "need at least one response");
  for (std::size_t row : f_rows)
    VMAP_REQUIRE(row < f.rows(), "response row out of range");

  // Augmented design: rows are samples, columns are [sensors | 1].
  linalg::Matrix design(n, q + 1);
  for (std::size_t s = 0; s < n; ++s) {
    double* row = design.row_data(s);
    for (std::size_t j = 0; j < q; ++j) row[j] = x_selected(j, s);
    row[q] = 1.0;
  }
  linalg::QR qr(design);
  if (report) report->record_condition(stage, qr.condition_estimate());
  linalg::Matrix coef(q + 1, k);
  Status solved;
  linalg::Vector target(n);
  for (std::size_t kk = 0; kk < k && solved.ok(); ++kk) {
    const double* src = f.row_data(f_rows[kk]);
    std::copy(src, src + n, target.begin());
    StatusOr<linalg::Vector> col = qr.try_solve(target);
    if (col.ok())
      coef.set_col(kk, col.value());
    else
      solved = col.status();
  }
  if (!solved.ok()) {
    // Rank-deficient design (duplicate / constant sensor rows). Refit via
    // the normal equations with an escalating ridge jitter scaled to the
    // average Gram diagonal, so the fix is dimensionally sensible.
    linalg::Matrix targets(n, k);  // one column per response
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t s = 0; s < n; ++s) targets(s, kk) = f(f_rows[kk], s);
    linalg::Matrix gram = linalg::matmul_at_b(design, design);
    const linalg::Matrix rhs = linalg::matmul_at_b(design, targets);
    double trace = 0.0;
    for (std::size_t i = 0; i < gram.rows(); ++i) trace += gram(i, i);
    const double unit =
        trace > 0.0 ? trace / static_cast<double>(gram.rows()) : 1.0;
    bool recovered = false;
    for (const double scale : {1e-10, 1e-8, 1e-6, 1e-4, 1e-2}) {
      const double ridge = unit * scale;
      linalg::Matrix jittered = gram;
      for (std::size_t i = 0; i < jittered.rows(); ++i)
        jittered(i, i) += ridge;
      StatusOr<linalg::Cholesky> chol =
          linalg::Cholesky::try_factorize(jittered);
      if (!chol.ok()) continue;
      coef = chol->solve(rhs);
      used_ridge_fallback_ = true;
      recovered = true;
      if (report)
        report->record(stage, ResilienceAction::kFallback,
                       "rank-deficient OLS design; ridge-jittered refit "
                       "(ridge = " + std::to_string(ridge) + ")",
                       ErrorCode::kNumerical, ridge);
      break;
    }
    if (!recovered) throw ContractError(solved.to_string());
  }

  alpha_ = linalg::Matrix(k, q);
  intercept_ = linalg::Vector(k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t j = 0; j < q; ++j) alpha_(kk, j) = coef(j, kk);
    intercept_[kk] = coef(q, kk);
  }

  // rmse(F, predict(X^S)) element by element: each fitted value is
  // matmul's chain (zero coefficients skipped) plus the intercept, and the
  // squared residuals sum in row-major order.
  double acc = 0.0;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* t = f.row_data(f_rows[kk]);
    const double* a = alpha_.row_data(kk);
    for (std::size_t s = 0; s < n; ++s) {
      double fitted = 0.0;
      for (std::size_t j = 0; j < q; ++j)
        if (a[j] != 0.0) fitted += a[j] * x_selected(j, s);
      fitted += intercept_[kk];
      const double d = fitted - t[s];
      acc += d * d;
    }
  }
  train_rmse_ = std::sqrt(acc / static_cast<double>(k * n));
}

linalg::Vector OlsModel::predict(const linalg::Vector& x_sensors) const {
  VMAP_REQUIRE(x_sensors.size() == sensors(), "sensor reading size mismatch");
  linalg::Vector out = linalg::matvec(alpha_, x_sensors);
  out += intercept_;
  return out;
}

linalg::Matrix OlsModel::predict(const linalg::Matrix& x_sensors) const {
  VMAP_REQUIRE(x_sensors.rows() == sensors(), "sensor reading size mismatch");
  linalg::Matrix out = linalg::matmul(alpha_, x_sensors);
  for (std::size_t k = 0; k < out.rows(); ++k) {
    double* row = out.row_data(k);
    const double c = intercept_[k];
    for (std::size_t s = 0; s < out.cols(); ++s) row[s] += c;
  }
  return out;
}

double relative_error(const linalg::Matrix& f_true,
                      const linalg::Matrix& f_pred) {
  VMAP_REQUIRE(f_true.rows() == f_pred.rows() &&
                   f_true.cols() == f_pred.cols(),
               "shape mismatch in relative_error");
  VMAP_REQUIRE(!f_true.empty(), "empty matrices in relative_error");
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t k = 0; k < f_true.rows(); ++k) {
    const double* t = f_true.row_data(k);
    const double* p = f_pred.row_data(k);
    for (std::size_t s = 0; s < f_true.cols(); ++s) {
      VMAP_REQUIRE(t[s] != 0.0, "true value is zero in relative_error");
      acc += std::abs(p[s] - t[s]) / std::abs(t[s]);
      ++count;
    }
  }
  return acc / static_cast<double>(count);
}

double rmse(const linalg::Matrix& f_true, const linalg::Matrix& f_pred) {
  VMAP_REQUIRE(f_true.rows() == f_pred.rows() &&
                   f_true.cols() == f_pred.cols(),
               "shape mismatch in rmse");
  VMAP_REQUIRE(!f_true.empty(), "empty matrices in rmse");
  double acc = 0.0;
  for (std::size_t k = 0; k < f_true.rows(); ++k) {
    const double* t = f_true.row_data(k);
    const double* p = f_pred.row_data(k);
    for (std::size_t s = 0; s < f_true.cols(); ++s) {
      const double d = p[s] - t[s];
      acc += d * d;
    }
  }
  return std::sqrt(acc / static_cast<double>(f_true.rows() * f_true.cols()));
}

}  // namespace vmap::core
