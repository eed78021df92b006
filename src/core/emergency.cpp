#include "core/emergency.hpp"

#include "util/assert.hpp"

namespace vmap::core {

double ErrorRates::miss_rate() const {
  return emergencies == 0
             ? 0.0
             : static_cast<double>(misses) / static_cast<double>(emergencies);
}

double ErrorRates::wrong_alarm_rate() const {
  const std::size_t non_emergencies = samples - emergencies;
  return non_emergencies == 0 ? 0.0
                              : static_cast<double>(wrong_alarms) /
                                    static_cast<double>(non_emergencies);
}

double ErrorRates::total_error_rate() const {
  return samples == 0 ? 0.0
                      : static_cast<double>(misses + wrong_alarms) /
                            static_cast<double>(samples);
}

std::vector<bool> emergency_ground_truth(const linalg::Matrix& f_true,
                                         double threshold) {
  std::vector<bool> truth(f_true.cols(), false);
  for (std::size_t k = 0; k < f_true.rows(); ++k) {
    const double* row = f_true.row_data(k);
    for (std::size_t s = 0; s < f_true.cols(); ++s)
      if (row[s] < threshold) truth[s] = true;
  }
  return truth;
}

namespace {
ErrorRates tally(const std::vector<bool>& truth,
                 const std::vector<bool>& alarm) {
  VMAP_ASSERT(truth.size() == alarm.size(), "tally size mismatch");
  ErrorRates rates;
  rates.samples = truth.size();
  for (std::size_t s = 0; s < truth.size(); ++s) {
    if (truth[s]) {
      ++rates.emergencies;
      if (!alarm[s]) ++rates.misses;
    } else if (alarm[s]) {
      ++rates.wrong_alarms;
    }
  }
  return rates;
}
}  // namespace

ErrorRates evaluate_prediction_detector(const linalg::Matrix& f_true,
                                        const linalg::Matrix& f_pred,
                                        double threshold) {
  VMAP_REQUIRE(f_true.rows() == f_pred.rows() &&
                   f_true.cols() == f_pred.cols(),
               "shape mismatch in prediction detector");
  const std::vector<bool> truth = emergency_ground_truth(f_true, threshold);
  const std::vector<bool> alarm = emergency_ground_truth(f_pred, threshold);
  return tally(truth, alarm);
}

ErrorRates evaluate_sensor_detector(
    const linalg::Matrix& f_true, const linalg::Matrix& x,
    const std::vector<std::size_t>& sensor_rows, double threshold) {
  VMAP_REQUIRE(f_true.cols() == x.cols(),
               "F and X must share the sample axis");
  const std::vector<bool> truth = emergency_ground_truth(f_true, threshold);
  std::vector<bool> alarm(x.cols(), false);
  for (std::size_t row : sensor_rows) {
    VMAP_REQUIRE(row < x.rows(), "sensor row out of range");
    const double* values = x.row_data(row);
    for (std::size_t s = 0; s < x.cols(); ++s)
      if (values[s] < threshold) alarm[s] = true;
  }
  return tally(truth, alarm);
}

}  // namespace vmap::core
