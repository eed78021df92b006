#pragma once
// Runtime voltage-emergency monitor.
//
// Wraps a fitted PlacementModel into the component a dynamic noise
// management loop would actually integrate (paper §2.4's closing remark:
// at runtime only Eq. (20) is evaluated). Adds the things hardware
// deployments need beyond raw prediction:
//
//  * debouncing — an alarm asserts only after `alarm_consecutive`
//    consecutive crossing predictions and releases after
//    `release_consecutive` safe ones, filtering single-sample noise so the
//    (expensive) throttling machinery is not toggled spuriously;
//  * fault tolerance (optional) — a SensorFaultDetector is consulted every
//    sample and, while any sensor is flagged faulty, predictions come from
//    the DegradedModelBank's fallback refit over the healthy subset instead
//    of the base model. With every sensor healthy the base model is used
//    verbatim, so the fault-tolerant monitor is bit-identical to the plain
//    one until a fault is actually flagged;
//  * accounting — alarm/crossing and degraded-mode statistics for post-hoc
//    evaluation;
//  * a batched entry (observe_with_worst) — a decision needs only the
//    lowest predicted voltage and its row, so a serving layer can compute
//    those for many samples in one fused kernel call and hand each monitor
//    its sample's worst block instead of a full prediction vector.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/degraded_model.hpp"
#include "core/fault_detector.hpp"
#include "core/pipeline.hpp"
#include "linalg/vector.hpp"
#include "util/status.hpp"

namespace vmap::core {

struct OnlineMonitorConfig {
  double emergency_threshold = 0.85;  ///< V
  std::size_t alarm_consecutive = 1;  ///< crossings needed to assert
  std::size_t release_consecutive = 1;  ///< safe samples needed to release
};

/// Stateful monitor; feed one sensor-reading vector per sample.
class OnlineMonitor {
 public:
  /// The model is copied so the monitor owns its coefficients (as the
  /// synthesized hardware table would).
  OnlineMonitor(PlacementModel model, OnlineMonitorConfig config);

  /// Fault-tolerant variant: the detector is consulted on every sample and
  /// faulty sensors are routed around via the bank's fallback refits. Both
  /// must have been trained for the same sensor set as `model`.
  OnlineMonitor(PlacementModel model, OnlineMonitorConfig config,
                SensorFaultDetector detector, DegradedModelBank bank);

  /// Per-sample decision record.
  struct Decision {
    bool alarm = false;          ///< debounced alarm state after this sample
    bool crossing = false;       ///< any predicted voltage below threshold
    std::size_t worst_row = 0;   ///< monitored row with the lowest prediction
    double worst_voltage = 0.0;  ///< that prediction (V)
    /// All monitored rows' predictions. Empty when observe_with_worst
    /// decided the sample from its precomputed worst block.
    linalg::Vector predicted;
    bool degraded = false;       ///< prediction came from a fallback model
    std::size_t faulty_sensors = 0;  ///< sensors flagged at this sample
    std::size_t invalid_readings = 0;  ///< non-finite entries in this sample
    /// The sample was refused: no prediction was made and no monitor state
    /// (streaks, counters, alarm) changed. `status` explains why.
    bool rejected = false;
    Status status;
  };

  /// Consumes one reading vector (aligned with the model's sensor_rows()).
  /// Throws ContractError on a size mismatch (caller bug). Non-finite
  /// readings never abort: a fault-tolerant monitor routes the affected
  /// sensors through the detector/degraded-bank path (NaN/Inf entries are
  /// excluded from the prediction exactly like flagged-faulty sensors),
  /// while a plain monitor returns a rejected Decision carrying a Status —
  /// the bad feed degrades or is refused, it cannot kill the process.
  Decision observe(const linalg::Vector& sensor_readings);

  /// Batched entry point: identical to observe() except that on the
  /// all-healthy, all-finite path the sample is decided on `worst` instead
  /// of evaluating the model, and Decision::predicted stays empty. The
  /// caller must pass exactly this sample's entry of
  /// model().worst_from_sensor_readings_batch (the serving layer computes
  /// it for a micro-batch of chips in one fused kernel call). A
  /// fault-tolerant monitor still consults its detector on every sample; on
  /// any degraded or non-finite sample `worst` is ignored and the fallback
  /// bank recomputes, filling `predicted` as observe() does.
  Decision observe_with_worst(const linalg::Vector& sensor_readings,
                              const WorstBlock& worst);

  /// Snapshot of all mutable monitor state (debounce streaks + accounting),
  /// for crash-safe checkpointing of a serving fleet.
  struct Counters {
    bool alarm = false;
    bool degraded = false;
    std::uint64_t crossing_streak = 0;
    std::uint64_t safe_streak = 0;
    std::uint64_t samples = 0;
    std::uint64_t alarm_samples = 0;
    std::uint64_t alarm_episodes = 0;
    std::uint64_t degraded_samples = 0;
    std::uint64_t degraded_episodes = 0;
    std::uint64_t rejected_samples = 0;
  };
  Counters counters() const;
  /// Restores a counters() snapshot (detector state is restored separately
  /// via SensorFaultDetector::restore_runtime_state).
  void restore_counters(const Counters& c);

  /// Detector hysteresis state for checkpointing (empty vectors when the
  /// monitor is not fault-tolerant).
  SensorFaultDetector::RuntimeState detector_state() const;
  /// Restores detector_state(); OK and a no-op for a plain monitor fed an
  /// empty snapshot, InvalidArgument on any shape mismatch.
  Status restore_detector_state(
      const SensorFaultDetector::RuntimeState& state);

  const PlacementModel& model() const { return model_; }
  const OnlineMonitorConfig& config() const { return config_; }

  std::size_t samples() const { return samples_; }
  /// Samples during which the (debounced) alarm was asserted.
  std::size_t alarm_samples() const { return alarm_samples_; }
  /// Distinct alarm episodes (assertions).
  std::size_t alarm_episodes() const { return alarm_episodes_; }
  bool alarm_active() const { return alarm_; }

  /// True when constructed with a detector + fallback bank.
  bool fault_tolerant() const { return detector_.has_value(); }
  /// Per-sensor health (empty for a non-fault-tolerant monitor).
  std::vector<SensorHealth> sensor_health() const;
  /// Samples predicted by a fallback model (any sensor flagged).
  std::size_t degraded_samples() const { return degraded_samples_; }
  /// Distinct degraded-mode episodes (entries into degraded operation).
  std::size_t degraded_episodes() const { return degraded_episodes_; }
  bool degraded_active() const { return degraded_; }
  /// Samples refused with a rejected Decision (plain monitor fed NaN/Inf).
  std::size_t rejected_samples() const { return rejected_samples_; }

 private:
  Decision observe_impl(const linalg::Vector& sensor_readings,
                        const WorstBlock* precomputed);

  PlacementModel model_;
  OnlineMonitorConfig config_;
  std::optional<SensorFaultDetector> detector_;
  std::optional<DegradedModelBank> bank_;
  bool alarm_ = false;
  bool degraded_ = false;
  std::size_t crossing_streak_ = 0;
  std::size_t safe_streak_ = 0;
  std::size_t samples_ = 0;
  std::size_t alarm_samples_ = 0;
  std::size_t alarm_episodes_ = 0;
  std::size_t degraded_samples_ = 0;
  std::size_t degraded_episodes_ = 0;
  std::size_t rejected_samples_ = 0;
};

}  // namespace vmap::core
