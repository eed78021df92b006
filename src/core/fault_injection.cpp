#include "core/fault_injection.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace vmap::core {

SensorFault SensorFault::stuck_at(std::size_t sensor, double value,
                                  std::size_t onset, std::size_t duration) {
  SensorFault f;
  f.sensor = sensor;
  f.type = FaultType::kStuckAt;
  f.value = value;
  f.onset = onset;
  f.duration = duration;
  return f;
}

SensorFault SensorFault::dead(std::size_t sensor, std::size_t onset,
                              std::size_t duration, double rail) {
  SensorFault f;
  f.sensor = sensor;
  f.type = FaultType::kDead;
  f.value = rail;
  f.onset = onset;
  f.duration = duration;
  return f;
}

SensorFault SensorFault::drift(std::size_t sensor, double volts_per_step,
                               std::size_t onset, std::size_t duration) {
  SensorFault f;
  f.sensor = sensor;
  f.type = FaultType::kDrift;
  f.drift_per_step = volts_per_step;
  f.onset = onset;
  f.duration = duration;
  return f;
}

SensorFault SensorFault::intermittent(std::size_t sensor, double dropout_p,
                                      std::size_t onset,
                                      std::size_t duration) {
  SensorFault f;
  f.sensor = sensor;
  f.type = FaultType::kIntermittent;
  f.dropout_probability = dropout_p;
  f.onset = onset;
  f.duration = duration;
  return f;
}

SensorFault SensorFault::spike(std::size_t sensor, double magnitude, double p,
                               std::size_t onset, std::size_t duration) {
  SensorFault f;
  f.sensor = sensor;
  f.type = FaultType::kSpike;
  f.spike_magnitude = magnitude;
  f.spike_probability = p;
  f.onset = onset;
  f.duration = duration;
  return f;
}

FaultInjector::FaultInjector(SensorFaultModel model, std::size_t sensors)
    : model_(std::move(model)), sensors_(sensors) {
  VMAP_REQUIRE(sensors_ >= 1, "injector needs at least one sensor");
  for (const auto& fault : model_.faults) {
    VMAP_REQUIRE(fault.sensor < sensors_,
                 "fault targets a sensor outside the reading vector");
    VMAP_REQUIRE(fault.dropout_probability >= 0.0 &&
                     fault.dropout_probability <= 1.0,
                 "dropout probability must be in [0, 1]");
    VMAP_REQUIRE(fault.spike_probability >= 0.0 &&
                     fault.spike_probability <= 1.0,
                 "spike probability must be in [0, 1]");
    VMAP_REQUIRE(std::isfinite(fault.value) &&
                     std::isfinite(fault.drift_per_step) &&
                     std::isfinite(fault.spike_magnitude),
                 "fault parameters must be finite");
  }
  reset();
}

void FaultInjector::reset() {
  streams_.clear();
  streams_.reserve(model_.faults.size());
  // One independent stream per scheduled fault: splitmix the model seed
  // with the fault index so schedules are order-insensitive.
  for (std::size_t i = 0; i < model_.faults.size(); ++i)
    streams_.emplace_back(model_.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
  last_out_.assign(sensors_, 0.0);
  last_step_ = 0;
  started_ = false;
}

void FaultInjector::apply(std::size_t step, linalg::Vector& readings) {
  VMAP_REQUIRE(readings.size() == sensors_,
               "reading vector size does not match the injector");
  VMAP_REQUIRE(!started_ || step >= last_step_,
               "steps must be fed in non-decreasing order");

  for (std::size_t i = 0; i < model_.faults.size(); ++i) {
    const SensorFault& fault = model_.faults[i];
    if (!fault.active_at(step)) continue;
    double& r = readings[fault.sensor];
    switch (fault.type) {
      case FaultType::kStuckAt:
      case FaultType::kDead:
        r = fault.value;
        break;
      case FaultType::kDrift:
        r += fault.drift_per_step *
             static_cast<double>(step - fault.onset + 1);
        break;
      case FaultType::kIntermittent:
        if (streams_[i].bernoulli(fault.dropout_probability))
          r = last_out_[fault.sensor];
        break;
      case FaultType::kSpike:
        if (streams_[i].bernoulli(fault.spike_probability))
          r += fault.spike_magnitude;
        break;
    }
  }
  for (std::size_t s = 0; s < sensors_; ++s) last_out_[s] = readings[s];
  last_step_ = step;
  started_ = true;
}

linalg::Matrix apply_sensor_faults(const linalg::Matrix& readings,
                                   const SensorFaultModel& model) {
  if (model.empty()) return readings;
  FaultInjector injector(model, readings.rows());
  linalg::Matrix out = readings;
  linalg::Vector column(readings.rows());
  for (std::size_t c = 0; c < readings.cols(); ++c) {
    for (std::size_t r = 0; r < readings.rows(); ++r) column[r] = out(r, c);
    injector.apply(c, column);
    for (std::size_t r = 0; r < readings.rows(); ++r) out(r, c) = column[r];
  }
  return out;
}

}  // namespace vmap::core
