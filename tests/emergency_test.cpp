// Emergency detection metrics: confusion identities, hand-computed rates,
// and detector semantics.

#include <gtest/gtest.h>

#include "core/emergency.hpp"
#include "linalg/matrix.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vmap::core {
namespace {

TEST(GroundTruth, AnyRowBelowThresholdFlagsSample) {
  linalg::Matrix f{{0.9, 0.9, 0.80}, {0.9, 0.84, 0.9}};
  const auto truth = emergency_ground_truth(f, 0.85);
  EXPECT_FALSE(truth[0]);
  EXPECT_TRUE(truth[1]);
  EXPECT_TRUE(truth[2]);
}

TEST(PredictionDetector, PerfectPredictionHasZeroError) {
  linalg::Matrix f{{0.9, 0.8, 0.95}};
  const auto rates = evaluate_prediction_detector(f, f, 0.85);
  EXPECT_EQ(rates.samples, 3u);
  EXPECT_EQ(rates.emergencies, 1u);
  EXPECT_EQ(rates.misses, 0u);
  EXPECT_EQ(rates.wrong_alarms, 0u);
  EXPECT_DOUBLE_EQ(rates.total_error_rate(), 0.0);
}

TEST(PredictionDetector, HandComputedConfusion) {
  // Truth:   E, E, -, -
  // Alarm:   E, -, E, -
  linalg::Matrix f_true{{0.8, 0.8, 0.9, 0.9}};
  linalg::Matrix f_pred{{0.8, 0.9, 0.8, 0.9}};
  const auto rates = evaluate_prediction_detector(f_true, f_pred, 0.85);
  EXPECT_EQ(rates.emergencies, 2u);
  EXPECT_EQ(rates.misses, 1u);
  EXPECT_EQ(rates.wrong_alarms, 1u);
  EXPECT_DOUBLE_EQ(rates.miss_rate(), 0.5);
  EXPECT_DOUBLE_EQ(rates.wrong_alarm_rate(), 0.5);
  EXPECT_DOUBLE_EQ(rates.total_error_rate(), 0.5);
}

TEST(ErrorRates, TotalErrorDecomposition) {
  // TE * samples == ME * emergencies + WAE * non-emergencies (exactly).
  vmap::Rng rng(1);
  linalg::Matrix f_true(3, 200), f_pred(3, 200);
  for (std::size_t k = 0; k < 3; ++k)
    for (std::size_t s = 0; s < 200; ++s) {
      f_true(k, s) = rng.uniform(0.8, 1.0);
      f_pred(k, s) = f_true(k, s) + rng.normal(0.0, 0.01);
    }
  const auto r = evaluate_prediction_detector(f_true, f_pred, 0.85);
  const double lhs = r.total_error_rate() * static_cast<double>(r.samples);
  const double rhs =
      r.miss_rate() * static_cast<double>(r.emergencies) +
      r.wrong_alarm_rate() * static_cast<double>(r.samples - r.emergencies);
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST(ErrorRates, DegenerateDenominatorsAreZeroNotNan) {
  ErrorRates none;
  none.samples = 10;
  EXPECT_DOUBLE_EQ(none.miss_rate(), 0.0);
  ErrorRates all;
  all.samples = 10;
  all.emergencies = 10;
  EXPECT_DOUBLE_EQ(all.wrong_alarm_rate(), 0.0);
  ErrorRates empty;
  EXPECT_DOUBLE_EQ(empty.total_error_rate(), 0.0);
}

TEST(SensorDetector, AlarmsWhenAnySensorSeesEmergency) {
  linalg::Matrix f_true{{0.8, 0.9, 0.8}};
  linalg::Matrix x{{0.86, 0.9, 0.84},    // sensor row 0
                   {0.90, 0.9, 0.90}};   // sensor row 1
  const auto rates = evaluate_sensor_detector(f_true, x, {0, 1}, 0.85);
  // Sample 0: emergency, no sensor alarm -> miss.
  // Sample 1: no emergency, no alarm -> correct.
  // Sample 2: emergency, sensor 0 alarms -> detected.
  EXPECT_EQ(rates.emergencies, 2u);
  EXPECT_EQ(rates.misses, 1u);
  EXPECT_EQ(rates.wrong_alarms, 0u);
}

TEST(SensorDetector, WrongAlarmWhenSensorDroopsWithoutFaEmergency) {
  linalg::Matrix f_true{{0.9}};
  linalg::Matrix x{{0.80}};
  const auto rates = evaluate_sensor_detector(f_true, x, {0}, 0.85);
  EXPECT_EQ(rates.wrong_alarms, 1u);
  EXPECT_DOUBLE_EQ(rates.wrong_alarm_rate(), 1.0);
}

TEST(SensorDetector, EmptySensorSetMissesEverything) {
  linalg::Matrix f_true{{0.8, 0.9}};
  linalg::Matrix x{{0.7, 0.7}};
  const auto rates = evaluate_sensor_detector(f_true, x, {}, 0.85);
  EXPECT_EQ(rates.misses, 1u);
  EXPECT_EQ(rates.wrong_alarms, 0u);
}

TEST(SensorDetector, RowOutOfRangeThrows) {
  linalg::Matrix f_true{{0.9}};
  linalg::Matrix x{{0.9}};
  EXPECT_THROW(evaluate_sensor_detector(f_true, x, {5}, 0.85),
               vmap::ContractError);
}

TEST(Detectors, ThresholdBoundaryIsExclusive) {
  // Exactly at the threshold is NOT an emergency (strict less-than).
  linalg::Matrix f{{0.85}};
  const auto truth = emergency_ground_truth(f, 0.85);
  EXPECT_FALSE(truth[0]);
}

}  // namespace
}  // namespace vmap::core
