#pragma once
// Pluggable model backends for the placement pipeline.
//
// The paper hard-wires one selection model (budgeted group lasso, §2.2)
// and one prediction model (unconstrained OLS refit, §2.3). This seam
// splits the per-core fit into two replaceable components:
//
//   * SelectionBackend  — picks which candidate rows become sensors for a
//     core (the "where do sensors go" question);
//   * PredictionBackend — learns the affine map from the selected sensors'
//     raw readings to the core's block voltages (the "what do the readings
//     mean" question).
//
// Backends are looked up by name among the four built-ins:
//
//   selection:   "group_lasso" (default, bit-identical to the historic
//                pipeline), "greedy_r2" (forward selection baseline)
//   prediction:  "ols" (default, bit-identical), "spatial" (MAVIREC-style
//                geometry-feature ridge surrogate, spatial_surrogate.hpp)
//
// Every backend must produce a per-core affine model (alpha, intercept)
// over the selected sensors, so the assembled PlacementModel — and with it
// the serving layer, checkpoints, and every evaluation harness — is
// backend-agnostic. Backends must be stateless across calls: fit_placement
// constructs one instance per core fit and may run cores concurrently.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/pipeline.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/resilience.hpp"
#include "util/status.hpp"

namespace vmap::core {

/// Everything a backend may consult while fitting one core.
struct CoreFitContext {
  const Dataset& data;
  const chip::Floorplan& floorplan;
  std::size_t core_index = 0;
  /// X rows of this core's sensor candidates (ascending).
  const std::vector<std::size_t>& candidate_rows;
  /// F rows monitored in this core (ascending).
  const std::vector<std::size_t>& block_rows;
  const PipelineConfig& config;
  ResilienceReport* report = nullptr;  ///< may be null
};

/// What a selection backend hands back for one core.
struct SelectionOutcome {
  /// Chosen X rows — a subset of candidate_rows, ascending, never empty.
  std::vector<std::size_t> selected_rows;
  /// Per-candidate selection scores aligned with candidate_rows (GL's
  /// ||β_m||₂; other backends may leave it empty).
  linalg::Vector group_norms;
  /// Raw-coefficient affine model over selected_rows — the §2.3 no-refit
  /// ablation. Only backends whose selection statistic *is* a regression
  /// (group lasso) can provide it, and only fill it when the config asks
  /// (config.refit_ols == false).
  std::optional<linalg::Matrix> raw_alpha;
  std::optional<linalg::Vector> raw_intercept;
};

class SelectionBackend {
 public:
  virtual ~SelectionBackend() = default;
  virtual const char* name() const = 0;
  /// Picks this core's sensors. Throws StatusError on unrecoverable
  /// failure (after exhausting any backend-internal fallbacks).
  virtual SelectionOutcome select_core(const CoreFitContext& ctx) const = 0;
};

/// A fitted per-core affine predictor: f ≈ alpha · x_selected + intercept.
struct PredictionFit {
  linalg::Matrix alpha;      ///< K_core x Q_core
  linalg::Vector intercept;  ///< K_core
};

class PredictionBackend {
 public:
  virtual ~PredictionBackend() = default;
  virtual const char* name() const = 0;
  /// Learns the core's predictor on the training split. `selected_rows`
  /// are global X rows (ascending). Throws StatusError/ContractError on
  /// unrecoverable failure.
  virtual PredictionFit fit_core(
      const CoreFitContext& ctx,
      const std::vector<std::size_t>& selected_rows) const = 0;
};

/// Instantiates a built-in backend by name; unknown names are
/// kInvalidArgument (listing the known names), never an abort.
StatusOr<std::unique_ptr<SelectionBackend>> make_selection_backend(
    const std::string& name);
StatusOr<std::unique_ptr<PredictionBackend>> make_prediction_backend(
    const std::string& name);

}  // namespace vmap::core
