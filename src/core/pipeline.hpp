#pragma once
// End-to-end methodology: Steps 0-8 of paper §2.4.
//
// For each core (the paper reports per-core sensor counts), the pipeline:
//   1. normalizes the core's candidate voltages Z and block voltages G,
//   2. solves the budgeted group lasso (Eq. 12) at the given λ,
//   3. thresholds ||β_m||₂ > T to select the core's sensors (Step 5),
//   4. refits an unconstrained OLS model on the selected raw voltages
//      (Eq. 17) — or, for the §2.3 ablation, converts the shrunk GL
//      coefficients back to raw units instead,
// and assembles one chip-wide PlacementModel that predicts every block's
// supply voltage from the selected sensors' readings.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/group_lasso.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/resilience.hpp"

namespace vmap::core {

/// Spatial-surrogate prediction backend knobs (see spatial_surrogate.hpp).
struct SurrogateOptions {
  /// Ridge penalty in standardized feature space, scaled by the sample
  /// count inside the solve (dimensionless).
  double ridge = 1e-3;
  /// Inverse-distance weighting exponent for neighbor-voltage aggregates.
  double idw_power = 2.0;
  /// Tile radius of the local power-density patch around a monitored node.
  std::size_t density_radius = 3;
};

struct PipelineConfig {
  double lambda = 30.0;    ///< per-core GL budget (Eq. 12's λ)
  double threshold = 1e-3; ///< selection threshold T on ||β_m||₂
  /// When set, overrides the threshold rule with exact top-k selection per
  /// core (used for fixed-budget comparisons like Table 2's 2/core).
  std::optional<std::size_t> sensors_per_core;
  bool refit_ols = true;   ///< §2.3 refit; false = raw GL coefficients
  bool per_core = true;    ///< false = one chip-wide GL problem
  GroupLassoOptions gl_options;
  /// Model backends (core/backend.hpp built-in names). The defaults route
  /// the paper's pipeline — group-lasso selection + OLS refit — through
  /// the backend seams bit-identically to the historic hard-wired path.
  std::string selection = "group_lasso";
  std::string prediction = "ols";
  SurrogateOptions surrogate;  ///< used when prediction == "spatial"
};

/// Per-core fitted artifacts.
struct CoreModel {
  std::size_t core = 0;
  std::vector<std::size_t> candidate_rows;  ///< X rows of this core's candidates
  std::vector<std::size_t> block_rows;      ///< F rows monitored in this core
  linalg::Vector group_norms;  ///< ||β_m||₂ aligned with candidate_rows
  std::vector<std::size_t> selected_rows;   ///< chosen X rows (ascending)
  linalg::Matrix alpha;        ///< K_core x Q_core prediction coefficients
  linalg::Vector intercept;    ///< K_core
};

/// The lowest predicted block voltage of one sample and its block row: the
/// first strict minimum in block-row order, which OnlineMonitor decides on.
struct WorstBlock {
  double voltage = 0.0;  ///< V
  std::size_t row = 0;
};

/// Scratch for PlacementModel::worst_from_sensor_readings_batch that a
/// caller keeps across calls, so that a warm call allocates nothing.
struct WorstScratch {
  std::vector<double> tile;  ///< num_blocks() x kern::kAffinePanel
  std::vector<double> voltage;
  std::vector<std::size_t> row;
  std::vector<linalg::kern::AffineBlock> blocks;  ///< one per core
};

/// Chip-wide sensor placement + voltage prediction model.
class PlacementModel {
 public:
  /// Requires every core's alpha to be block rows x selected rows, its
  /// intercept to have one entry per block row, and every block row to be
  /// below num_blocks.
  explicit PlacementModel(std::vector<CoreModel> cores,
                          std::vector<std::size_t> sensor_nodes,
                          std::size_t num_blocks);

  const std::vector<CoreModel>& cores() const { return cores_; }
  /// All selected X rows, ascending, duplicates removed.
  const std::vector<std::size_t>& sensor_rows() const { return sensor_rows_; }
  /// Grid node ids of the selected sensors (aligned with sensor_rows()).
  const std::vector<std::size_t>& sensor_nodes() const {
    return sensor_nodes_;
  }
  std::size_t num_blocks() const { return num_blocks_; }

  /// Predicts all block voltages for every column of a full candidate
  /// matrix X (M x N): returns K x N.
  linalg::Matrix predict(const linalg::Matrix& x_full) const;
  /// Single-sample variant (x_full has M entries).
  linalg::Vector predict_sample(const linalg::Vector& x_full) const;
  /// Runtime variant: predicts from the placed sensors' readings only
  /// (aligned with sensor_rows()/sensor_nodes()); this is what on-chip
  /// hardware would evaluate.
  linalg::Vector predict_from_sensor_readings(
      const linalg::Vector& readings) const;
  /// Micro-batched runtime variant: `readings` is Q x B (one column per
  /// sample, rows aligned with sensor_rows()); returns K x B through the
  /// blocked matmul kernels. Column b is bit-identical to
  /// predict_from_sensor_readings(readings.col(b)) — both paths accumulate
  /// each output in the same ascending-k order. The serving layer needs
  /// only each sample's worst block and decides on
  /// worst_from_sensor_readings_batch instead.
  linalg::Matrix predict_from_sensor_readings_batch(
      const linalg::Matrix& readings) const;
  /// The serving layer's decision path: writes worst[b], the WorstBlock of
  /// column b of `readings`, for every b < n, from one fused
  /// kern::affine_min call, with no prediction vector or K x n matrix
  /// built. `readings` is laid out as for
  /// predict_from_sensor_readings_batch and may be wider than n (Q x C,
  /// n <= C), so a caller can keep one buffer for batches of any size.
  /// worst[b] equals, bit for bit, the first strict minimum (`<` in
  /// block-row order, so a NaN never wins) of
  /// predict_from_sensor_readings(readings.col(b)) and its row, for any
  /// layout of the cores' block_rows: a row no core covers predicts 0.0 and
  /// a row two cores cover takes the later core's value. Requires
  /// num_blocks() > 0.
  void worst_from_sensor_readings_batch(const linalg::Matrix& readings,
                                        std::size_t n, WorstScratch& scratch,
                                        WorstBlock* worst) const;

 private:
  std::vector<CoreModel> cores_;
  std::vector<std::size_t> sensor_rows_;
  std::vector<std::size_t> sensor_nodes_;
  std::size_t num_blocks_ = 0;
  /// positions_[c][q]: the index in sensor_rows_ of core c's q-th selected
  /// row, i.e. the reading row the fused kernel takes it from.
  std::vector<std::vector<std::size_t>> positions_;
};

/// Runs the methodology on a dataset. Throws on configuration errors —
/// including StatusError(kInvalidArgument) for an unknown backend name,
/// raised before any per-core work starts; falls back to the strongest
/// single candidate if a core's GL solution selects nothing at the given
/// λ/T (logged). Numerical breakdowns are handled by the solver guardrails
/// (rank-deficient OLS → ridge refit); each recovery is recorded into
/// `report` when one is supplied. Throws StatusError on a group-lasso
/// breakdown, or when every fallback fails.
PlacementModel fit_placement(const Dataset& data,
                             const chip::Floorplan& floorplan,
                             const PipelineConfig& config,
                             ResilienceReport* report = nullptr);

}  // namespace vmap::core
