#pragma once
// Sensor fault models (the failure modes SensorNoiseModel does not cover).
//
// SensorNoiseModel degrades readings benignly (thermal noise, offsets,
// quantization); a fielded sensor can also fail outright: freeze at a
// value, die to a rail, drift out of calibration, drop samples, or emit
// spikes. With only Q ≈ 2-16 sensors per chip a single such fault corrupts
// every predicted block voltage, so the fault-tolerance stack
// (fault_detector.hpp, degraded_model.hpp) needs a way to rehearse them.
// This header injects deterministic, per-sensor-scheduled faults into
// sensor readings; it composes with apply_sensor_noise (inject after noise
// — the fault replaces whatever the transducer would have reported).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/rng.hpp"

namespace vmap::core {

/// Taxonomy of modelled sensor failure modes.
enum class FaultType {
  kStuckAt,       ///< output frozen at a fixed voltage
  kDead,          ///< output at a rail (stuck-at with a rail value)
  kDrift,         ///< calibration drifts linearly from onset
  kIntermittent,  ///< samples randomly drop (hold-last-output)
  kSpike,         ///< additive spikes at random steps
};

/// One scheduled fault on one sensor. Steps in [onset, onset + duration)
/// are faulty; duration 0 means permanent.
struct SensorFault {
  std::size_t sensor = 0;  ///< row index into the readings vector
  FaultType type = FaultType::kDead;
  std::size_t onset = 0;
  std::size_t duration = 0;  ///< 0 = permanent

  double value = 0.0;           ///< stuck-at / rail level (V)
  double drift_per_step = 0.0;  ///< kDrift slope (V/step)
  double dropout_probability = 0.0;  ///< kIntermittent per-step P(drop)
  double spike_probability = 0.0;    ///< kSpike per-step P(spike)
  double spike_magnitude = 0.0;      ///< kSpike amplitude (V, sign kept)

  bool active_at(std::size_t step) const {
    return step >= onset && (duration == 0 || step < onset + duration);
  }

  // Schedule factories for the common cases.
  static SensorFault stuck_at(std::size_t sensor, double value,
                              std::size_t onset, std::size_t duration = 0);
  static SensorFault dead(std::size_t sensor, std::size_t onset,
                          std::size_t duration = 0, double rail = 0.0);
  static SensorFault drift(std::size_t sensor, double volts_per_step,
                           std::size_t onset, std::size_t duration = 0);
  static SensorFault intermittent(std::size_t sensor, double dropout_p,
                                  std::size_t onset,
                                  std::size_t duration = 0);
  static SensorFault spike(std::size_t sensor, double magnitude, double p,
                           std::size_t onset, std::size_t duration = 0);
};

/// A full fault scenario: any number of scheduled faults plus the seed that
/// drives the stochastic types (intermittent, spike). Deterministic: the
/// corrupted stream depends only on (faults, seed) and the clean readings.
struct SensorFaultModel {
  std::vector<SensorFault> faults;
  std::uint64_t seed = 0x5EAD5E25ULL;

  bool empty() const { return faults.empty(); }
};

/// Streaming injector. Feed steps in order: drift integrates from onset and
/// the stochastic faults consume per-fault RNG streams (one stream per
/// scheduled fault, split from the model seed, so adding a fault never
/// perturbs another fault's realization).
class FaultInjector {
 public:
  FaultInjector(SensorFaultModel model, std::size_t sensors);

  /// Corrupts one reading vector in place for time `step`. Steps must be
  /// non-decreasing across calls.
  void apply(std::size_t step, linalg::Vector& readings);

  const SensorFaultModel& model() const { return model_; }
  std::size_t sensors() const { return sensors_; }

  /// Restarts the schedule (stochastic streams re-seeded identically).
  void reset();

 private:
  SensorFaultModel model_;
  std::size_t sensors_ = 0;
  std::vector<Rng> streams_;      ///< one per fault
  std::vector<double> last_out_;  ///< per sensor, for hold-last-output
  std::size_t last_step_ = 0;
  bool started_ = false;
};

/// Matrix convenience: column c of `readings` (one sensor per row) is
/// treated as time step c. Equivalent to streaming the columns through a
/// fresh FaultInjector.
linalg::Matrix apply_sensor_faults(const linalg::Matrix& readings,
                                   const SensorFaultModel& model);

}  // namespace vmap::core
