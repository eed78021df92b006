#pragma once
// Online sensor-fault detection via cross-prediction residuals.
//
// The placed sensors are strongly correlated (that is why the group lasso
// can reconstruct the full chip from them), so each sensor is itself
// predictable from the others. At fit time every selected sensor gets a
// cross-prediction OLS model (sensor i regressed on the remaining Q-1
// sensors, reusing OlsModel) plus the residual sigma of that model on the
// training set. At runtime a sensor whose standardized residual stays out
// of bounds for `flag_consecutive` samples is declared faulty, and clears
// again after `recover_consecutive` in-bound samples — the same debounce /
// hysteresis idiom OnlineMonitor uses for emergency alarms, so transient
// droops or single corrupted samples do not toggle the fallback machinery.
//
// Two refinements keep attribution sharp. (1) Substitution: a sensor
// already flagged faulty is replaced by its own cross-prediction when it
// serves as a peer, so its garbage stops polluting the healthy sensors'
// residuals. (2) Single-suspect attribution: before a fault is flagged the
// culprit sits in every peer's design vector and several residuals blow up
// together, so per sample only the worst healthy offender advances its
// flag streak; the bystanders hold until substitution clears them.
// Simultaneous multi-fault onsets are therefore attributed sequentially
// (best-effort), one flag_consecutive window per fault.

#include <cstddef>
#include <vector>

#include "core/ols_model.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/status.hpp"

namespace vmap::core {

/// Per-sensor health as tracked by the detector.
enum class SensorHealth { kHealthy, kFaulty };

struct FaultDetectorConfig {
  /// |residual| / sigma bound before a sample counts as out-of-bounds.
  /// Clean streams show two kinds of benign excursion: long-but-shallow
  /// (measured: 10 consecutive samples peaking at z = 6.2 on a tight
  /// 16-sensor budget) and tall-but-short (z up to 25 for <= 4 samples).
  /// The threshold is set above the shallow kind; the debounce below
  /// absorbs the tall kind. Hard faults sit far beyond both: a dead rail
  /// scores z in the hundreds, persistently.
  double z_threshold = 8.0;
  /// Out-of-bound samples before a sensor is flagged. Tall clean
  /// excursions last at most 4 consecutive samples (measured across
  /// 16- and 32-sensor platforms); a real fault stays out of bounds
  /// indefinitely, so 5 consecutive samples separate the two.
  std::size_t flag_consecutive = 5;
  std::size_t recover_consecutive = 8;  ///< in-bound samples to clear
  /// Residual sigma floor (V). Cross-prediction residuals can be
  /// numerically tiny when sensors are near-collinear, which would let
  /// sub-millivolt workload transients look like faults. The 1 mV floor
  /// keeps the detector focused on residuals that are material at supply
  /// scale (droops are tens of mV); real faults (dead rail, stuck-at,
  /// accumulated drift) sit orders of magnitude above it.
  double min_sigma = 1e-3;
};

/// Stateful per-sensor fault detector; feed one reading vector per sample.
class SensorFaultDetector {
 public:
  /// Trains the cross-prediction models from `x_sensors` (Q x N training
  /// readings of the selected sensors, same row order the monitor will use
  /// at runtime). When N is large enough, the last ~20% of columns are held
  /// out of the fit and residual sigma is calibrated on them — the training
  /// RMSE alone underestimates the held-out residual scale and would make
  /// the detector trigger-happy. Q == 1 is accepted but undetectable: with
  /// no peers to cross-predict from, the single sensor is always reported
  /// healthy.
  SensorFaultDetector(const linalg::Matrix& x_sensors,
                      FaultDetectorConfig config);

  std::size_t sensors() const { return health_.size(); }
  const FaultDetectorConfig& config() const { return config_; }

  /// Consumes one reading vector; returns the post-hysteresis health map.
  const std::vector<SensorHealth>& observe(const linalg::Vector& readings);

  const std::vector<SensorHealth>& health() const { return health_; }
  bool any_faulty() const;
  std::size_t faulty_count() const;
  /// healthy()[i] == (health()[i] == kHealthy); the mask shape the
  /// degraded-model bank consumes.
  std::vector<bool> healthy_mask() const;

  /// Standardized residuals of the most recent observation (diagnostics).
  const linalg::Vector& last_zscores() const { return zscores_; }
  /// Training residual sigma per sensor (after flooring).
  const linalg::Vector& residual_sigma() const { return sigma_; }

  /// Mutable runtime state (health + hysteresis streaks), detached from the
  /// trained cross-prediction models — what a serving checkpoint must carry
  /// so a restart resumes mid-hysteresis instead of re-learning faults.
  struct RuntimeState {
    std::vector<SensorHealth> health;
    std::vector<std::size_t> out_streak;
    std::vector<std::size_t> in_streak;
  };
  RuntimeState runtime_state() const;
  /// Restores a runtime_state() snapshot; InvalidArgument on a sensor-count
  /// mismatch (state from a differently-shaped detector).
  Status restore_runtime_state(const RuntimeState& state);

 private:
  FaultDetectorConfig config_;
  std::vector<OlsModel> cross_;  ///< per sensor; empty when Q == 1
  linalg::Vector sigma_;
  std::vector<SensorHealth> health_;
  std::vector<std::size_t> out_streak_;
  std::vector<std::size_t> in_streak_;
  linalg::Vector zscores_;
};

}  // namespace vmap::core
