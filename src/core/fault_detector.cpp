#include "core/fault_detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace vmap::core {

SensorFaultDetector::SensorFaultDetector(const linalg::Matrix& x_sensors,
                                         FaultDetectorConfig config)
    : config_(config) {
  const std::size_t q = x_sensors.rows();
  const std::size_t n = x_sensors.cols();
  VMAP_REQUIRE(q >= 1, "detector needs at least one sensor");
  VMAP_REQUIRE(config_.z_threshold > 0.0, "z threshold must be positive");
  VMAP_REQUIRE(config_.flag_consecutive >= 1 &&
                   config_.recover_consecutive >= 1,
               "hysteresis counts must be >= 1");
  VMAP_REQUIRE(config_.min_sigma > 0.0, "sigma floor must be positive");

  sigma_ = linalg::Vector(q);
  health_.assign(q, SensorHealth::kHealthy);
  out_streak_.assign(q, 0);
  in_streak_.assign(q, 0);
  zscores_ = linalg::Vector(q);

  if (q == 1) {
    // No peers to cross-predict from; the sensor is undetectable.
    sigma_[0] = std::numeric_limits<double>::infinity();
    return;
  }
  VMAP_REQUIRE(n >= q, "need at least Q samples to train the detector");

  // Sigma calibration must be honest about generalization: the training
  // RMSE of a (Q-1)-regressor OLS badly underestimates the residual scale
  // on unseen samples, and a sigma that is too small turns ordinary
  // workload transients into false faults. When the training window is
  // large enough, the last ~20% of columns are therefore held out of the
  // fit and sigma is measured on them.
  const std::size_t n_cal =
      (n >= q + 10)
          ? std::min(std::max<std::size_t>(n / 5, 8), n - q)
          : 0;
  const std::size_t n_fit = n - n_cal;

  cross_.reserve(q);
  linalg::Matrix peers(q - 1, n_fit);
  linalg::Matrix target(1, n_fit);
  linalg::Vector peer_sample(q - 1);
  for (std::size_t i = 0; i < q; ++i) {
    std::size_t dst = 0;
    for (std::size_t j = 0; j < q; ++j) {
      if (j == i) continue;
      const double* src = x_sensors.row_data(j);
      double* out = peers.row_data(dst++);
      for (std::size_t s = 0; s < n_fit; ++s) out[s] = src[s];
    }
    const double* src = x_sensors.row_data(i);
    double* out = target.row_data(0);
    for (std::size_t s = 0; s < n_fit; ++s) out[s] = src[s];
    cross_.emplace_back(peers, target);

    double resid = cross_.back().train_rmse();
    if (n_cal > 0) {
      double acc = 0.0;
      for (std::size_t s = n_fit; s < n; ++s) {
        std::size_t p = 0;
        for (std::size_t j = 0; j < q; ++j)
          if (j != i) peer_sample[p++] = x_sensors(j, s);
        const double err =
            x_sensors(i, s) - cross_.back().predict(peer_sample)[0];
        acc += err * err;
      }
      resid = std::sqrt(acc / static_cast<double>(n_cal));
    }
    sigma_[i] = std::max(resid, config_.min_sigma);
  }
}

const std::vector<SensorHealth>& SensorFaultDetector::observe(
    const linalg::Vector& readings) {
  const std::size_t q = sensors();
  VMAP_REQUIRE(readings.size() == q,
               "readings must align with the trained sensors");

  if (cross_.empty()) {
    zscores_.fill(0.0);
    return health_;  // Q == 1: undetectable, always healthy
  }

  // Sanitized copy: a non-finite reading must not poison its peers'
  // residuals; the offending sensor itself scores +inf below.
  linalg::Vector clean = readings;
  for (std::size_t i = 0; i < q; ++i)
    if (!std::isfinite(clean[i])) clean[i] = 0.0;

  // Virtual-sensor substitution: an already-flagged sensor's reading is
  // replaced by its own cross-prediction, so its garbage does not keep
  // polluting the healthy sensors' residuals (and recovery of the healthy
  // set is immediate once the fault is attributed).
  linalg::Vector substituted = clean;
  linalg::Vector peers(q - 1);
  for (std::size_t i = 0; i < q; ++i) {
    if (health_[i] != SensorHealth::kFaulty) continue;
    std::size_t dst = 0;
    for (std::size_t j = 0; j < q; ++j)
      if (j != i) peers[dst++] = clean[j];
    substituted[i] = cross_[i].predict(peers)[0];
  }

  for (std::size_t i = 0; i < q; ++i) {
    std::size_t dst = 0;
    for (std::size_t j = 0; j < q; ++j)
      if (j != i) peers[dst++] = substituted[j];
    const double expected = cross_[i].predict(peers)[0];
    zscores_[i] = std::isfinite(readings[i])
                      ? std::abs(readings[i] - expected) / sigma_[i]
                      : std::numeric_limits<double>::infinity();
  }

  // Attribution: before a fault is flagged, the culprit's reading sits in
  // every peer's design vector, so several healthy sensors can be out of
  // bounds at once. Only the worst healthy offender accumulates its flag
  // streak each sample — faults are attributed one at a time; the bystanders
  // hold (their streak neither advances nor clears) until substitution of
  // the flagged sensor pulls their residuals back in bounds.
  std::size_t suspect = q;  // q = none
  for (std::size_t i = 0; i < q; ++i) {
    if (health_[i] != SensorHealth::kHealthy) continue;
    if (zscores_[i] <= config_.z_threshold) continue;
    if (suspect == q || zscores_[i] > zscores_[suspect]) suspect = i;
  }

  for (std::size_t i = 0; i < q; ++i) {
    const bool in_bounds = zscores_[i] <= config_.z_threshold;
    if (in_bounds) {
      ++in_streak_[i];
      out_streak_[i] = 0;
      if (health_[i] == SensorHealth::kFaulty &&
          in_streak_[i] >= config_.recover_consecutive)
        health_[i] = SensorHealth::kHealthy;
    } else if (health_[i] == SensorHealth::kFaulty) {
      ++out_streak_[i];
      in_streak_[i] = 0;
    } else if (i == suspect) {
      ++out_streak_[i];
      in_streak_[i] = 0;
      if (out_streak_[i] >= config_.flag_consecutive)
        health_[i] = SensorHealth::kFaulty;
    } else {
      in_streak_[i] = 0;  // bystander: hold, likely pollution
    }
  }
  return health_;
}

bool SensorFaultDetector::any_faulty() const { return faulty_count() > 0; }

std::size_t SensorFaultDetector::faulty_count() const {
  std::size_t n = 0;
  for (SensorHealth h : health_)
    if (h == SensorHealth::kFaulty) ++n;
  return n;
}

std::vector<bool> SensorFaultDetector::healthy_mask() const {
  std::vector<bool> mask(health_.size());
  for (std::size_t i = 0; i < health_.size(); ++i)
    mask[i] = health_[i] == SensorHealth::kHealthy;
  return mask;
}

SensorFaultDetector::RuntimeState SensorFaultDetector::runtime_state() const {
  RuntimeState s;
  s.health = health_;
  s.out_streak = out_streak_;
  s.in_streak = in_streak_;
  return s;
}

Status SensorFaultDetector::restore_runtime_state(const RuntimeState& state) {
  const std::size_t q = sensors();
  if (state.health.size() != q || state.out_streak.size() != q ||
      state.in_streak.size() != q)
    return Status::InvalidArgument(
        "detector runtime state is for " +
        std::to_string(state.health.size()) + " sensors, detector has " +
        std::to_string(q));
  health_ = state.health;
  out_streak_ = state.out_streak;
  in_streak_ = state.in_streak;
  return Status::Ok();
}

}  // namespace vmap::core
