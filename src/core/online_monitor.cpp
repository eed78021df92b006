#include "core/online_monitor.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace vmap::core {

OnlineMonitor::OnlineMonitor(PlacementModel model, OnlineMonitorConfig config)
    : model_(std::move(model)), config_(config) {
  VMAP_REQUIRE(config_.emergency_threshold > 0.0,
               "threshold must be positive");
  VMAP_REQUIRE(config_.alarm_consecutive >= 1 &&
                   config_.release_consecutive >= 1,
               "debounce counts must be >= 1");
}

OnlineMonitor::OnlineMonitor(PlacementModel model, OnlineMonitorConfig config,
                             SensorFaultDetector detector,
                             DegradedModelBank bank)
    : OnlineMonitor(std::move(model), config) {
  VMAP_REQUIRE(detector.sensors() == model_.sensor_rows().size(),
               "detector was trained for a different sensor set");
  VMAP_REQUIRE(bank.sensors() == model_.sensor_rows().size(),
               "fallback bank was built for a different sensor set");
  detector_.emplace(std::move(detector));
  bank_.emplace(std::move(bank));
}

OnlineMonitor::Decision OnlineMonitor::observe(
    const linalg::Vector& sensor_readings) {
  return observe_impl(sensor_readings, nullptr);
}

OnlineMonitor::Decision OnlineMonitor::observe_with_worst(
    const linalg::Vector& sensor_readings, const WorstBlock& worst) {
  VMAP_REQUIRE(worst.row < model_.num_blocks(),
               "precomputed worst block must be a monitored row");
  return observe_impl(sensor_readings, &worst);
}

OnlineMonitor::Decision OnlineMonitor::observe_impl(
    const linalg::Vector& sensor_readings, const WorstBlock* precomputed) {
  VMAP_REQUIRE(sensor_readings.size() == model_.sensor_rows().size(),
               "readings must align with the model's placed sensors");
  Decision decision;
  for (std::size_t i = 0; i < sensor_readings.size(); ++i)
    if (!std::isfinite(sensor_readings[i])) ++decision.invalid_readings;

  // A bad feed must degrade, never kill the process. Without a fallback
  // bank there is nothing safe to predict from, so the sample is refused
  // (monitor state untouched — the alarm holds at its last debounced value).
  if (decision.invalid_readings > 0 && !detector_) {
    decision.rejected = true;
    decision.status = Status::InvalidArgument(
        std::to_string(decision.invalid_readings) +
        " non-finite sensor reading(s); monitor has no fallback bank");
    ++rejected_samples_;
    return decision;
  }

  if (detector_) {
    detector_->observe(sensor_readings);
    decision.faulty_sensors = detector_->faulty_count();
    if (decision.faulty_sensors > 0 || decision.invalid_readings > 0) {
      decision.degraded = true;
      std::vector<bool> usable = detector_->healthy_mask();
      for (std::size_t i = 0; i < sensor_readings.size(); ++i)
        if (!std::isfinite(sensor_readings[i])) usable[i] = false;
      decision.predicted = bank_->predict(sensor_readings, usable);
    }
  }
  if (!decision.degraded && precomputed) {
    decision.worst_voltage = precomputed->voltage;
    decision.worst_row = precomputed->row;
  } else {
    if (!decision.degraded)
      decision.predicted = model_.predict_from_sensor_readings(sensor_readings);
    if (decision.predicted.size() == 0) {
      decision.rejected = true;
      decision.status =
          Status::Numerical("model produced an empty prediction vector");
      ++rejected_samples_;
      return decision;
    }
    // First strict minimum in row order; `<` is false on NaN, so a NaN
    // never replaces the running minimum (kern::affine_min's scan).
    decision.worst_voltage = decision.predicted[0];
    for (std::size_t k = 1; k < decision.predicted.size(); ++k) {
      if (decision.predicted[k] < decision.worst_voltage) {
        decision.worst_voltage = decision.predicted[k];
        decision.worst_row = k;
      }
    }
  }
  decision.crossing = decision.worst_voltage < config_.emergency_threshold;

  if (decision.crossing) {
    ++crossing_streak_;
    safe_streak_ = 0;
    if (!alarm_ && crossing_streak_ >= config_.alarm_consecutive) {
      alarm_ = true;
      ++alarm_episodes_;
    }
  } else {
    ++safe_streak_;
    crossing_streak_ = 0;
    if (alarm_ && safe_streak_ >= config_.release_consecutive) alarm_ = false;
  }

  decision.alarm = alarm_;
  ++samples_;
  if (alarm_) ++alarm_samples_;
  if (decision.degraded) {
    ++degraded_samples_;
    if (!degraded_) ++degraded_episodes_;
  }
  degraded_ = decision.degraded;
  return decision;
}

std::vector<SensorHealth> OnlineMonitor::sensor_health() const {
  if (!detector_) return {};
  return detector_->health();
}

SensorFaultDetector::RuntimeState OnlineMonitor::detector_state() const {
  if (!detector_) return {};
  return detector_->runtime_state();
}

Status OnlineMonitor::restore_detector_state(
    const SensorFaultDetector::RuntimeState& state) {
  if (!detector_) {
    if (state.health.empty() && state.out_streak.empty() &&
        state.in_streak.empty())
      return Status::Ok();
    return Status::InvalidArgument(
        "detector state supplied for a monitor without a fault detector");
  }
  return detector_->restore_runtime_state(state);
}

OnlineMonitor::Counters OnlineMonitor::counters() const {
  Counters c;
  c.alarm = alarm_;
  c.degraded = degraded_;
  c.crossing_streak = crossing_streak_;
  c.safe_streak = safe_streak_;
  c.samples = samples_;
  c.alarm_samples = alarm_samples_;
  c.alarm_episodes = alarm_episodes_;
  c.degraded_samples = degraded_samples_;
  c.degraded_episodes = degraded_episodes_;
  c.rejected_samples = rejected_samples_;
  return c;
}

void OnlineMonitor::restore_counters(const Counters& c) {
  alarm_ = c.alarm;
  degraded_ = c.degraded;
  crossing_streak_ = static_cast<std::size_t>(c.crossing_streak);
  safe_streak_ = static_cast<std::size_t>(c.safe_streak);
  samples_ = static_cast<std::size_t>(c.samples);
  alarm_samples_ = static_cast<std::size_t>(c.alarm_samples);
  alarm_episodes_ = static_cast<std::size_t>(c.alarm_episodes);
  degraded_samples_ = static_cast<std::size_t>(c.degraded_samples);
  degraded_episodes_ = static_cast<std::size_t>(c.degraded_episodes);
  rejected_samples_ = static_cast<std::size_t>(c.rejected_samples);
}

}  // namespace vmap::core
