#include "core/backend.hpp"

#include <algorithm>
#include <sstream>

#include "core/baselines.hpp"
#include "core/group_lasso.hpp"
#include "core/normalizer.hpp"
#include "core/ols_model.hpp"
#include "core/sensor_selection.hpp"
#include "core/spatial_surrogate.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace vmap::core {

namespace {

/// Converts group-lasso coefficients (normalized space, restricted to the
/// selected columns) into a raw-unit affine model — the no-refit ablation.
void gl_coefficients_to_affine(const GroupLassoResult& gl,
                               const std::vector<std::size_t>& selected_local,
                               const Normalizer& x_norm,
                               const Normalizer& f_norm,
                               SelectionOutcome& out) {
  const std::size_t k_count = gl.beta.rows();
  const std::size_t q = selected_local.size();
  linalg::Matrix alpha(k_count, q);
  linalg::Vector intercept(k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    const double sf = f_norm.is_degenerate(k) ? 0.0 : f_norm.stddevs()[k];
    double c = f_norm.means()[k];
    for (std::size_t j = 0; j < q; ++j) {
      const std::size_t m = selected_local[j];
      const double sx = x_norm.stddevs()[m];
      const double a = x_norm.is_degenerate(m)
                           ? 0.0
                           : sf * gl.beta(k, m) / sx;
      alpha(k, j) = a;
      c -= a * x_norm.means()[m];
    }
    intercept[k] = c;
  }
  out.raw_alpha = std::move(alpha);
  out.raw_intercept = std::move(intercept);
}

/// Backend #1: the paper's budgeted group lasso (§2.2, Steps 2-5). Every
/// arithmetic chain is the pre-refactor fit_core's, in the same order, so
/// routing through the seam is bit-identical.
class GroupLassoSelection final : public SelectionBackend {
 public:
  const char* name() const override { return "group_lasso"; }

  SelectionOutcome select_core(const CoreFitContext& ctx) const override {
    const PipelineConfig& config = ctx.config;
    const std::size_t core_index = ctx.core_index;
    ResilienceReport* report = ctx.report;

    // Steps 2-3: restrict + normalize, reading the dataset's rows in place.
    const linalg::Matrix& x_train = ctx.data.x_train;
    const linalg::Matrix& f_train = ctx.data.f_train;
    const Normalizer x_norm(x_train, ctx.candidate_rows);
    const Normalizer f_norm(f_train, ctx.block_rows);

    // Step 4: budgeted group lasso; a numerical breakdown is thrown. The
    // Gram statistics are built from the listed rows one column tile at a
    // time, so Z and G are never formed.
    const GroupLasso solver(
        GroupLassoProblem::from_rows(x_train, ctx.candidate_rows, x_norm,
                                     f_train, ctx.block_rows, f_norm),
        config.gl_options);
    const GroupLassoResult gl = solver.solve_budget(config.lambda);
    if (!gl.status.ok()) throw StatusError(gl.status);
    if (!gl.converged) {
      // Inexact but usable: the solve stopped at the iteration cap before
      // its duality gap met the tolerance. Surface it — selection quality
      // may suffer — but keep going.
      std::ostringstream detail;
      detail << "core " << core_index
             << ": iteration cap hit at relative duality gap "
             << gl.duality_gap << "; using the inexact solution";
      VMAP_LOG(kWarn) << detail.str();
      if (report)
        report->record("group_lasso", ResilienceAction::kNote, detail.str(),
                       ErrorCode::kNotConverged, gl.duality_gap);
    }

    SelectionOutcome out;
    out.group_norms = gl.group_norms;

    // Step 5: selection. The OLS refit needs more samples than regressors,
    // so selections are capped at N-1 sensors per core.
    const std::size_t cap =
        std::min(ctx.candidate_rows.size(), x_train.cols() - 1);
    SensorSelection selection =
        config.sensors_per_core
            ? select_top_k(gl, std::min<std::size_t>(
                                   *config.sensors_per_core, cap))
            : select_sensors(gl, config.threshold);
    if (selection.indices.empty()) {
      VMAP_LOG(kWarn) << "core " << core_index << ": lambda=" << config.lambda
                      << " selected no sensor; falling back to the strongest "
                         "candidate";
      selection = select_top_k(gl, 1);
    } else if (selection.indices.size() > cap) {
      VMAP_LOG(kWarn) << "core " << core_index << ": selection of "
                      << selection.indices.size()
                      << " sensors exceeds the sample budget; keeping the top "
                      << cap;
      selection = select_top_k(gl, cap);
    }

    out.selected_rows.reserve(selection.indices.size());
    for (std::size_t local : selection.indices)
      out.selected_rows.push_back(ctx.candidate_rows[local]);

    if (!config.refit_ols)
      gl_coefficients_to_affine(gl, selection.indices, x_norm, f_norm, out);
    return out;
  }
};

/// Greedy forward R² selection (the strongest combinatorial baseline from
/// core/baselines.hpp), packaged as a backend so the ablation matrix can
/// cross it with any predictor. Needs a hard per-core budget.
class GreedyR2Selection final : public SelectionBackend {
 public:
  const char* name() const override { return "greedy_r2"; }

  SelectionOutcome select_core(const CoreFitContext& ctx) const override {
    if (!ctx.config.sensors_per_core)
      throw StatusError(Status::InvalidArgument(
          "selection backend 'greedy_r2' needs config.sensors_per_core (it "
          "has no budget-vs-threshold rule of its own)"));
    const std::size_t cap = std::min(ctx.candidate_rows.size(),
                                     ctx.data.x_train.cols() - 1);
    const std::size_t count =
        std::min<std::size_t>(*ctx.config.sensors_per_core, cap);
    const linalg::Matrix x = ctx.data.x_train.select_rows(ctx.candidate_rows);
    const linalg::Matrix f = ctx.data.f_train.select_rows(ctx.block_rows);

    SelectionOutcome out;
    for (std::size_t local : greedy_r2_select(x, f, count))
      out.selected_rows.push_back(ctx.candidate_rows[local]);
    std::sort(out.selected_rows.begin(), out.selected_rows.end());
    return out;
  }
};

/// Backend #1 on the prediction side: the §2.3 unconstrained OLS refit,
/// operation-for-operation the pre-refactor path.
class OlsPrediction final : public PredictionBackend {
 public:
  const char* name() const override { return "ols"; }

  PredictionFit fit_core(
      const CoreFitContext& ctx,
      const std::vector<std::size_t>& selected_rows) const override {
    const linalg::Matrix x_sel = ctx.data.x_train.select_rows(selected_rows);
    OlsModel ols(x_sel, ctx.data.f_train, ctx.block_rows, ctx.report);
    PredictionFit fit;
    fit.alpha = ols.alpha();
    fit.intercept = ols.intercept();
    return fit;
  }
};

}  // namespace

StatusOr<std::unique_ptr<SelectionBackend>> make_selection_backend(
    const std::string& name) {
  std::unique_ptr<SelectionBackend> backend;
  if (name == "group_lasso")
    backend = std::make_unique<GroupLassoSelection>();
  else if (name == "greedy_r2")
    backend = std::make_unique<GreedyR2Selection>();
  else
    return Status::InvalidArgument("unknown selection backend '" + name +
                                   "' (known: greedy_r2, group_lasso)");
  return backend;
}

StatusOr<std::unique_ptr<PredictionBackend>> make_prediction_backend(
    const std::string& name) {
  std::unique_ptr<PredictionBackend> backend;
  if (name == "ols")
    backend = std::make_unique<OlsPrediction>();
  else if (name == "spatial")
    backend = make_spatial_surrogate_backend();
  else
    return Status::InvalidArgument("unknown prediction backend '" + name +
                                   "' (known: ols, spatial)");
  return backend;
}

}  // namespace vmap::core
