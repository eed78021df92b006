#include "core/backend.hpp"

#include <algorithm>
#include <map>
#include <mutex>
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

    // Step 4: budgeted group lasso; a numerical breakdown is thrown. Z and
    // G are temporaries, freed once the Gram statistics are built, so the
    // solve holds only those.
    const GroupLasso solver(
        GroupLassoProblem::from_data(
            x_norm.normalize(x_train, ctx.candidate_rows),
            f_norm.normalize(f_train, ctx.block_rows)),
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
    const linalg::Matrix f = ctx.data.f_train.select_rows(ctx.block_rows);
    OlsModel ols(x_sel, f, ctx.report);
    PredictionFit fit;
    fit.alpha = ols.alpha();
    fit.intercept = ols.intercept();
    return fit;
  }
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, SelectionFactory> selection;
  std::map<std::string, PredictionFactory> prediction;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

void ensure_builtins() {
  static std::once_flag once;
  std::call_once(once, [] {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.selection.emplace("group_lasso", [] {
      return std::unique_ptr<SelectionBackend>(new GroupLassoSelection());
    });
    r.selection.emplace("greedy_r2", [] {
      return std::unique_ptr<SelectionBackend>(new GreedyR2Selection());
    });
    r.prediction.emplace("ols", [] {
      return std::unique_ptr<PredictionBackend>(new OlsPrediction());
    });
    r.prediction.emplace("spatial",
                         [] { return make_spatial_surrogate_backend(); });
  });
}

template <typename Factory>
Status register_backend(std::map<std::string, Factory>& slot,
                        std::mutex& mutex, const char* kind,
                        const std::string& name, Factory factory) {
  if (name.empty())
    return Status::InvalidArgument(std::string(kind) +
                                   " backend name must not be empty");
  if (!factory)
    return Status::InvalidArgument(std::string(kind) + " backend '" + name +
                                   "' has a null factory");
  std::lock_guard<std::mutex> lock(mutex);
  if (!slot.emplace(name, std::move(factory)).second)
    return Status::InvalidArgument(std::string(kind) + " backend '" + name +
                                   "' is already registered");
  return Status::Ok();
}

template <typename Backend, typename Factory>
StatusOr<std::unique_ptr<Backend>> make_backend(
    const std::map<std::string, Factory>& slot, std::mutex& mutex,
    const char* kind, const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex);
  const auto it = slot.find(name);
  if (it == slot.end()) {
    std::string known;
    for (const auto& [n, f] : slot) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return Status::InvalidArgument("unknown " + std::string(kind) +
                                   " backend '" + name + "' (registered: " +
                                   known + ")");
  }
  const Factory factory = it->second;  // copy: call outside the lock
  lock.unlock();
  std::unique_ptr<Backend> backend = factory();
  if (!backend)
    return Status::InvalidArgument(std::string(kind) + " backend '" + name +
                                   "' factory returned null");
  return backend;
}

template <typename Factory>
std::vector<std::string> backend_names(
    const std::map<std::string, Factory>& slot, std::mutex& mutex) {
  std::lock_guard<std::mutex> lock(mutex);
  std::vector<std::string> names;
  names.reserve(slot.size());
  for (const auto& [name, factory] : slot) names.push_back(name);
  return names;  // std::map iterates sorted
}

}  // namespace

Status register_selection_backend(const std::string& name,
                                  SelectionFactory factory) {
  ensure_builtins();
  Registry& r = registry();
  return register_backend(r.selection, r.mutex, "selection", name,
                          std::move(factory));
}

Status register_prediction_backend(const std::string& name,
                                   PredictionFactory factory) {
  ensure_builtins();
  Registry& r = registry();
  return register_backend(r.prediction, r.mutex, "prediction", name,
                          std::move(factory));
}

StatusOr<std::unique_ptr<SelectionBackend>> make_selection_backend(
    const std::string& name) {
  ensure_builtins();
  Registry& r = registry();
  return make_backend<SelectionBackend>(r.selection, r.mutex, "selection",
                                        name);
}

StatusOr<std::unique_ptr<PredictionBackend>> make_prediction_backend(
    const std::string& name) {
  ensure_builtins();
  Registry& r = registry();
  return make_backend<PredictionBackend>(r.prediction, r.mutex, "prediction",
                                         name);
}

std::vector<std::string> selection_backend_names() {
  ensure_builtins();
  Registry& r = registry();
  return backend_names(r.selection, r.mutex);
}

std::vector<std::string> prediction_backend_names() {
  ensure_builtins();
  Registry& r = registry();
  return backend_names(r.prediction, r.mutex);
}

}  // namespace vmap::core
