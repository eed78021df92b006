#pragma once
// Voltage-emergency detection and the paper's three error rates (§3.2).
//
// A sample (one voltage map) is in emergency when any monitored FA node's
// true supply voltage falls below the threshold (0.85 V for VDD = 1.0 V).
// A detector raises an alarm per sample; comparing alarms to ground truth
// over a test set yields:
//   miss error (ME)        = P(no alarm | emergency)
//   wrong alarm error (WAE)= P(alarm | no emergency)
//   total error (TE)       = P(alarm != emergency)   [per-sample]

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace vmap::core {

/// Confusion counts and derived rates for one detector on one test set.
struct ErrorRates {
  std::size_t samples = 0;
  std::size_t emergencies = 0;   ///< ground-truth emergency samples
  std::size_t misses = 0;        ///< emergencies with no alarm
  std::size_t wrong_alarms = 0;  ///< non-emergencies with an alarm

  double miss_rate() const;        ///< ME; 0 if no emergencies occurred
  double wrong_alarm_rate() const; ///< WAE; 0 if every sample was an emergency
  double total_error_rate() const; ///< TE
};

/// Per-sample ground truth: true iff any row of `f_true` (K x N) in that
/// column is below `threshold`.
std::vector<bool> emergency_ground_truth(const linalg::Matrix& f_true,
                                         double threshold);

/// Model-based detection (the proposed approach): alarm on sample s iff any
/// predicted response f_pred(k, s) < threshold. Both matrices are K x N.
ErrorRates evaluate_prediction_detector(const linalg::Matrix& f_true,
                                        const linalg::Matrix& f_pred,
                                        double threshold);

/// Direct sensor alarm (Eagle-Eye style): alarm on sample s iff any of the
/// given rows of `x` (M x N, raw candidate voltages) is below `threshold`.
/// Ground truth still comes from `f_true`.
ErrorRates evaluate_sensor_detector(const linalg::Matrix& f_true,
                                    const linalg::Matrix& x,
                                    const std::vector<std::size_t>& sensor_rows,
                                    double threshold);

}  // namespace vmap::core
