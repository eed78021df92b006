#include "core/spatial_surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/normalizer.hpp"
#include "linalg/cholesky.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace vmap::core {

namespace {

/// Per-block fixed feature map: phi = W x_selected, W is D x Q with the
/// identity block on top and the five geometry-derived aggregate rows
/// below. Aggregate count is fixed; see build_feature_map().
constexpr std::size_t kAggregateRows = 5;

/// Fills rows Q..Q+4 of `w` for one monitored node: IDW aggregate, nearest
/// sensor, core mean, pad-context (IDW scaled by normalized pad distance),
/// power-density-context (mean scaled by local density). All rows are
/// fixed linear functionals of the readings.
void build_feature_map(const CoreFitContext& ctx,
                       const std::vector<std::size_t>& sensor_nodes,
                       std::size_t block_node, linalg::Matrix& w) {
  const grid::PowerGrid& grid = ctx.floorplan.grid();
  const SurrogateOptions& opts = ctx.config.surrogate;
  const std::size_t q = sensor_nodes.size();
  VMAP_ASSERT(w.rows() == q + kAggregateRows && w.cols() == q,
              "feature map shape mismatch");

  // Identity block.
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t j = 0; j < q; ++j) w(i, j) = i == j ? 1.0 : 0.0;

  // Inverse-distance weights, normalized to sum 1. The pitch offset keeps
  // the weight finite when a sensor sits on the monitored node itself.
  const double eps = grid.config().pitch_um;
  std::vector<double> idw(q);
  double idw_sum = 0.0;
  std::size_t nearest = 0;
  double nearest_d = grid.distance_um(block_node, sensor_nodes[0]);
  for (std::size_t j = 0; j < q; ++j) {
    const double d = grid.distance_um(block_node, sensor_nodes[j]);
    idw[j] = 1.0 / std::pow(eps + d, opts.idw_power);
    idw_sum += idw[j];
    if (d < nearest_d) {
      nearest_d = d;
      nearest = j;
    }
  }
  const double inv_q = 1.0 / static_cast<double>(q);
  const double pad_scale =
      grid.nearest_pad_distance_um(block_node) / grid.die_diagonal_um();
  const double density =
      ctx.floorplan.local_power_density(block_node, opts.density_radius);
  for (std::size_t j = 0; j < q; ++j) {
    const double wj = idw[j] / idw_sum;
    w(q + 0, j) = wj;
    w(q + 1, j) = j == nearest ? 1.0 : 0.0;
    w(q + 2, j) = inv_q;
    w(q + 3, j) = pad_scale * wj;
    w(q + 4, j) = density * inv_q;
  }
}

class SpatialSurrogate final : public PredictionBackend {
 public:
  const char* name() const override { return "spatial"; }

  PredictionFit fit_core(
      const CoreFitContext& ctx,
      const std::vector<std::size_t>& selected_rows) const override;
};

PredictionFit SpatialSurrogate::fit_core(
    const CoreFitContext& ctx,
    const std::vector<std::size_t>& selected_rows) const {
  TraceSpan span("backend.pred.spatial.fit_core");
  static metrics::Counter& fits = metrics::counter("surrogate.core_fits");
  static metrics::Histogram& feature_ms =
      metrics::histogram("surrogate.feature_ms");
  fits.add();

  const SurrogateOptions& opts = ctx.config.surrogate;
  VMAP_REQUIRE(opts.ridge > 0.0, "surrogate ridge must be positive");
  const linalg::Matrix x_sel = ctx.data.x_train.select_rows(selected_rows);
  const linalg::Matrix f = ctx.data.f_train.select_rows(ctx.block_rows);
  const std::size_t q = x_sel.rows();
  const std::size_t n = x_sel.cols();
  const std::size_t k_count = f.rows();
  const std::size_t d = q + kAggregateRows;
  VMAP_REQUIRE(n >= 2, "surrogate needs at least two training samples");

  std::vector<std::size_t> sensor_nodes(q);
  for (std::size_t j = 0; j < q; ++j)
    sensor_nodes[j] = ctx.data.candidate_nodes[selected_rows[j]];

  PredictionFit fit;
  fit.alpha = linalg::Matrix(k_count, q);
  fit.intercept = linalg::Vector(k_count);

  double features_wall_ms = 0.0;
  linalg::Matrix w(d, q);
  for (std::size_t k = 0; k < k_count; ++k) {
    const std::size_t block_node = ctx.data.critical_nodes[ctx.block_rows[k]];

    Timer feature_timer;
    build_feature_map(ctx, sensor_nodes, block_node, w);
    // phi = W x_sel (D x N), fixed ascending accumulation order.
    linalg::Matrix phi = linalg::matmul(w, x_sel);
    features_wall_ms += feature_timer.millis();

    // Standardize features; center the response.
    const Normalizer phi_norm(phi);
    const linalg::Matrix z = phi_norm.normalize(phi);
    const double* fk = f.row_data(k);
    double f_mean = 0.0;
    for (std::size_t s = 0; s < n; ++s) f_mean += fk[s];
    f_mean /= static_cast<double>(n);
    linalg::Vector y(n);
    for (std::size_t s = 0; s < n; ++s) y[s] = fk[s] - f_mean;

    // Ridge normal equations in standardized space:
    //   (Z Zᵀ + ridge·N·I) w_std = Z y.
    const linalg::Matrix gram = linalg::matmul_a_at(z);
    const linalg::Vector rhs = linalg::matvec(z, y);
    const double base = opts.ridge * static_cast<double>(n);
    linalg::Vector w_std(d);
    double jitter = base;
    bool solved = false;
    for (int attempt = 0; attempt < 7 && !solved; ++attempt, jitter *= 10.0) {
      linalg::Matrix a = gram;
      for (std::size_t i = 0; i < d; ++i) a(i, i) += jitter;
      auto chol = linalg::Cholesky::try_factorize(a);
      if (!chol.ok()) {
        if (ctx.report && attempt == 0)
          ctx.report->record(
              "surrogate_ridge", ResilienceAction::kRetry,
              "core " + std::to_string(ctx.core_index) + " block row " +
                  std::to_string(ctx.block_rows[k]) +
                  ": feature Gram not SPD at base ridge; escalating",
              chol.status().code());
        continue;
      }
      w_std = chol.value().solve(rhs);
      solved = true;
    }
    if (!solved)
      throw StatusError(Status(
          ErrorCode::kNumerical,
          "spatial surrogate: feature Gram stayed indefinite for core " +
              std::to_string(ctx.core_index) + " even at ridge " +
              std::to_string(jitter / 10.0)));

    // Fold standardization + the feature map back into raw-reading space:
    //   f ≈ Σ_i (w_i/s_i)(phi_i − m_i) + f_mean, phi = W x.
    double intercept = f_mean;
    double* alpha_row = fit.alpha.row_data(k);
    for (std::size_t j = 0; j < q; ++j) alpha_row[j] = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      if (phi_norm.is_degenerate(i)) continue;
      const double wi = w_std[i] / phi_norm.stddevs()[i];
      intercept -= wi * phi_norm.means()[i];
      for (std::size_t j = 0; j < q; ++j) alpha_row[j] += wi * w(i, j);
    }
    fit.intercept[k] = intercept;
  }
  feature_ms.observe(features_wall_ms);
  return fit;
}

}  // namespace

std::unique_ptr<PredictionBackend> make_spatial_surrogate_backend() {
  return std::unique_ptr<PredictionBackend>(new SpatialSurrogate());
}

}  // namespace vmap::core
