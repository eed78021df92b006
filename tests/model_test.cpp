// OLS model, sensor selection, the placement model's batched worst-block
// decision, and Eagle-Eye baseline tests.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "core/group_lasso.hpp"
#include "core/ols_model.hpp"
#include "core/online_monitor.hpp"
#include "core/pipeline.hpp"
#include "core/sensor_selection.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vmap::core {
namespace {

TEST(OlsModel, RecoversPlantedAffineModel) {
  vmap::Rng rng(1);
  const std::size_t q = 3, k = 2, n = 200;
  linalg::Matrix x(q, n);
  for (std::size_t r = 0; r < q; ++r)
    for (std::size_t c = 0; c < n; ++c) x(r, c) = rng.normal(0.9, 0.05);
  linalg::Matrix true_alpha{{0.5, -0.2, 0.1}, {0.0, 0.7, -0.3}};
  linalg::Vector true_c{0.3, 0.25};
  linalg::Matrix f = linalg::matmul(true_alpha, x);
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t c = 0; c < n; ++c) f(kk, c) += true_c[kk];

  const OlsModel model(x, f);
  for (std::size_t kk = 0; kk < k; ++kk) {
    EXPECT_NEAR(model.intercept()[kk], true_c[kk], 1e-8);
    for (std::size_t j = 0; j < q; ++j)
      EXPECT_NEAR(model.alpha()(kk, j), true_alpha(kk, j), 1e-8);
  }
  EXPECT_NEAR(model.train_rmse(), 0.0, 1e-9);
}

TEST(OlsModel, ResidualOrthogonalToDesign) {
  vmap::Rng rng(2);
  const std::size_t q = 4, n = 150;
  linalg::Matrix x(q, n);
  for (std::size_t r = 0; r < q; ++r)
    for (std::size_t c = 0; c < n; ++c) x(r, c) = rng.normal();
  linalg::Matrix f(1, n);
  for (std::size_t c = 0; c < n; ++c) f(0, c) = rng.normal();

  const OlsModel model(x, f);
  const linalg::Matrix pred = model.predict(x);
  // Residual must be orthogonal to every regressor row and to the constant.
  double const_dot = 0.0;
  for (std::size_t c = 0; c < n; ++c)
    const_dot += f(0, c) - pred(0, c);
  EXPECT_NEAR(const_dot, 0.0, 1e-8);
  for (std::size_t r = 0; r < q; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < n; ++c)
      acc += x(r, c) * (f(0, c) - pred(0, c));
    EXPECT_NEAR(acc, 0.0, 1e-7);
  }
}

TEST(OlsModel, VectorAndMatrixPredictionsAgree) {
  vmap::Rng rng(3);
  linalg::Matrix x(2, 50), f(3, 50);
  for (std::size_t c = 0; c < 50; ++c) {
    x(0, c) = rng.normal();
    x(1, c) = rng.normal();
    for (std::size_t kk = 0; kk < 3; ++kk) f(kk, c) = rng.normal();
  }
  const OlsModel model(x, f);
  const linalg::Matrix all = model.predict(x);
  const linalg::Vector one = model.predict(x.col(17));
  for (std::size_t kk = 0; kk < 3; ++kk)
    EXPECT_NEAR(one[kk], all(kk, 17), 1e-12);
}

TEST(OlsModel, NeedsEnoughSamples) {
  linalg::Matrix x(3, 3), f(1, 3);
  EXPECT_THROW(OlsModel(x, f), vmap::ContractError);
}

TEST(OlsModel, RowListedResponsesMatchTheSelectedCopy) {
  // The per-core refit reads its responses in place as a list of F's rows.
  // It must fit what a fit on the copy f.select_rows(rows) fits, and its
  // training RMSE must be rmse(copy, predict(X)) — predict()'s chain per
  // element — byte for byte. The second design repeats a sensor row, so
  // both fits take the ridge fallback.
  const auto same = [](const double* a, const double* b, std::size_t n) {
    return std::memcmp(a, b, n * sizeof(double)) == 0;
  };
  vmap::Rng rng(5);
  const std::size_t n = 120;
  linalg::Matrix f(9, n);
  for (std::size_t r = 0; r < f.rows(); ++r)
    for (std::size_t c = 0; c < n; ++c) f(r, c) = rng.normal(0.9, 0.05);
  const std::vector<std::size_t> rows = {7, 2, 2, 5, 0};
  const linalg::Matrix f_sel = f.select_rows(rows);
  const linalg::kern::SimdLevel was = linalg::kern::simd_level();
  for (bool repeated : {false, true}) {
    linalg::Matrix x(3, n);
    for (std::size_t r = 0; r < x.rows(); ++r)
      for (std::size_t c = 0; c < n; ++c)
        x(r, c) = repeated && r == 2 ? x(0, c) : rng.normal(0.9, 0.05);
    for (auto level :
         {linalg::kern::SimdLevel::kScalar, linalg::kern::SimdLevel::kAvx2}) {
      linalg::kern::set_simd_level(level);
      const std::string tag =
          std::string(linalg::kern::simd_level_name(level)) +
          (repeated ? " repeated sensor" : "");
      const OlsModel listed(x, f, rows);
      const OlsModel copied(x, f_sel);
      EXPECT_EQ(listed.used_ridge_fallback(), repeated) << tag;
      EXPECT_EQ(copied.used_ridge_fallback(), repeated) << tag;
      ASSERT_EQ(listed.responses(), rows.size());
      ASSERT_EQ(listed.sensors(), x.rows());
      EXPECT_TRUE(same(listed.alpha().data(), copied.alpha().data(),
                       rows.size() * x.rows()))
          << "alpha " << tag;
      EXPECT_TRUE(same(listed.intercept().data(), copied.intercept().data(),
                       rows.size()))
          << "intercept " << tag;
      const double want = rmse(f_sel, copied.predict(x));
      const double got[] = {listed.train_rmse(), copied.train_rmse()};
      EXPECT_TRUE(same(&got[0], &want, 1)) << "train_rmse " << tag;
      EXPECT_TRUE(same(&got[1], &want, 1)) << "train_rmse of the copy " << tag;
    }
  }
  linalg::kern::set_simd_level(was);
  EXPECT_THROW(OlsModel(linalg::Matrix(3, n), f, {9}), vmap::ContractError);
}

TEST(OlsModel, OlsRefitBeatsShrunkGlCoefficients) {
  // The §2.3 argument end-to-end: fit GL with a tight budget, then compare
  // prediction error of (a) shrunk GL coefficients vs (b) OLS refit on the
  // selected sensor. OLS must win.
  vmap::Rng rng(4);
  const std::size_t n = 1000;
  linalg::Matrix z(2, n), g(2, n);
  for (std::size_t c = 0; c < n; ++c) {
    z(0, c) = rng.normal();
    z(1, c) = rng.normal();
    g(0, c) = z(0, c);
    g(1, c) = z(0, c);
  }
  GroupLasso solver(GroupLassoProblem::from_data(z, g));
  const auto gl = solver.solve_budget(1.0);
  const auto active = gl.active_groups(1e-3);
  ASSERT_EQ(active.size(), 1u);

  // GL prediction with shrunk coefficients.
  linalg::Matrix gl_pred = linalg::matmul(gl.beta, z);
  const double gl_err = rmse(g, gl_pred);

  // OLS refit on the selected regressor.
  const linalg::Matrix x_sel = z.select_rows(active);
  const OlsModel refit(x_sel, g);
  const double ols_err = rmse(g, refit.predict(x_sel));
  EXPECT_LT(ols_err, 0.5 * gl_err);
}

TEST(ErrorMetrics, HandComputedValues) {
  linalg::Matrix t{{1.0, 2.0}, {3.0, 4.0}};
  linalg::Matrix p{{1.1, 1.9}, {3.3, 3.6}};
  EXPECT_NEAR(relative_error(t, p),
              (0.1 / 1.0 + 0.1 / 2.0 + 0.3 / 3.0 + 0.4 / 4.0) / 4.0, 1e-12);
  EXPECT_NEAR(rmse(t, p),
              std::sqrt((0.01 + 0.01 + 0.09 + 0.16) / 4.0), 1e-12);
}

TEST(ErrorMetrics, PerfectPredictionIsZero) {
  linalg::Matrix t{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(relative_error(t, t), 0.0);
  EXPECT_DOUBLE_EQ(rmse(t, t), 0.0);
}

TEST(ErrorMetrics, ShapeMismatchThrows) {
  linalg::Matrix a(2, 3), b(2, 4);
  EXPECT_THROW(rmse(a, b), vmap::ContractError);
}

TEST(SensorSelection, ThresholdRuleSelectsLargeNorms) {
  GroupLassoResult result;
  result.beta = linalg::Matrix(1, 4);
  result.group_norms = linalg::Vector{0.5, 1e-6, 0.02, 1e-9};
  const auto selection = select_sensors(result, 1e-3);
  EXPECT_EQ(selection.indices, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(selection.count(), 2u);
}

TEST(SensorSelection, ZeroThresholdSelectsAllNonZero) {
  GroupLassoResult result;
  result.group_norms = linalg::Vector{0.5, 0.0, 0.1};
  const auto selection = select_sensors(result, 0.0);
  EXPECT_EQ(selection.indices, (std::vector<std::size_t>{0, 2}));
}

TEST(SensorSelection, TopKPicksLargest) {
  GroupLassoResult result;
  result.group_norms = linalg::Vector{0.1, 0.9, 0.5, 0.7};
  const auto selection = select_top_k(result, 2);
  EXPECT_EQ(selection.indices, (std::vector<std::size_t>{1, 3}));
  EXPECT_DOUBLE_EQ(selection.threshold, 0.7);
}

TEST(SensorSelection, TopKTieBreaksByIndex) {
  GroupLassoResult result;
  result.group_norms = linalg::Vector{0.5, 0.5, 0.5};
  const auto selection = select_top_k(result, 2);
  EXPECT_EQ(selection.indices, (std::vector<std::size_t>{0, 1}));
}

TEST(SensorSelection, TopKBoundsChecked) {
  GroupLassoResult result;
  result.group_norms = linalg::Vector{0.5};
  EXPECT_THROW(select_top_k(result, 2), vmap::ContractError);
}

TEST(PlacementModel, BatchedWorstMatchesPredictionAndMonitorScan) {
  // Two cores over interleaved block rows; row 4 belongs to neither, so it
  // predicts 0.0. Intercepts are positive and every other reading is small,
  // so that row is the minimum of some readings and a covered row of
  // others.
  vmap::Rng rng(31);
  auto random_core = [&rng](std::size_t index,
                            std::vector<std::size_t> selected,
                            std::vector<std::size_t> blocks) {
    CoreModel core;
    core.core = index;
    core.candidate_rows = selected;
    core.selected_rows = std::move(selected);
    core.block_rows = std::move(blocks);
    core.group_norms = linalg::Vector(core.selected_rows.size(), 1.0);
    core.alpha = linalg::Matrix(core.block_rows.size(),
                                core.selected_rows.size());
    core.intercept = linalg::Vector(core.block_rows.size());
    for (std::size_t k = 0; k < core.block_rows.size(); ++k) {
      for (std::size_t q = 0; q < core.selected_rows.size(); ++q)
        core.alpha(k, q) = rng.normal();
      core.intercept[k] = rng.uniform(0.5, 1.5);
    }
    return core;
  };
  std::vector<CoreModel> cores;
  cores.push_back(random_core(0, {2, 7, 11}, {0, 3, 6, 8}));
  cores.push_back(random_core(1, {4, 7}, {1, 5, 2, 7}));
  // The model under test is a copy whose original is gone before the first
  // call: a copy must decide from its own cores and sensor positions.
  std::optional<PlacementModel> original;
  original.emplace(std::move(cores), std::vector<std::size_t>{20, 40, 70, 110},
                   9);
  const PlacementModel model = *original;
  original.reset();
  ASSERT_EQ(model.sensor_rows(), (std::vector<std::size_t>{2, 4, 7, 11}));

  using linalg::kern::SimdLevel;
  const SimdLevel was = linalg::kern::simd_level();
  WorstScratch scratch;  // one for every call, as a fleet worker keeps it
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const std::string tag =
        std::string(" ") + linalg::kern::simd_level_name(level);
    if (level > linalg::kern::max_simd_level()) {
      std::cout << "[ SKIPPED  ] SIMD level" << tag << ": this CPU lacks it\n";
      continue;
    }
    linalg::kern::set_simd_level(level);
    for (std::size_t n : {1, 8, 13}) {
      // Two columns past n hold NaN; the call must never read them.
      linalg::Matrix readings(4, n + 2,
                              std::numeric_limits<double>::quiet_NaN());
      for (std::size_t q = 0; q < 4; ++q)
        for (std::size_t b = 0; b < n; ++b)
          readings(q, b) = rng.normal(0.0, b % 2 == 0 ? 1.0 : 0.05);
      std::vector<WorstBlock> worst(n);
      model.worst_from_sensor_readings_batch(readings, n, scratch,
                                             worst.data());
      bool uncovered_won = false, covered_won = false;
      for (std::size_t b = 0; b < n; ++b) {
        OnlineMonitor monitor(model, OnlineMonitorConfig{});
        const OnlineMonitor::Decision want = monitor.observe(readings.col(b));
        ASSERT_FALSE(want.rejected);
        EXPECT_EQ(std::memcmp(&worst[b].voltage, &want.worst_voltage,
                              sizeof(double)),
                  0)
            << "b=" << b << tag;
        EXPECT_EQ(worst[b].row, want.worst_row) << "b=" << b << tag;
        (worst[b].row == 4 ? uncovered_won : covered_won) = true;
      }
      if (n == 13) {
        EXPECT_TRUE(uncovered_won) << tag;
        EXPECT_TRUE(covered_won) << tag;
      }
    }
  }
  linalg::kern::set_simd_level(was);
}

TEST(PlacementModel, BatchedWorstNeedsAtLeastOneBlock) {
  const PlacementModel model({}, {}, 0);
  WorstScratch scratch;
  WorstBlock worst[3];
  EXPECT_THROW(model.worst_from_sensor_readings_batch(linalg::Matrix(0, 3), 3,
                                                      scratch, worst),
               vmap::ContractError);
}

TEST(PlacementModel, MalformedCoresAreRejectedAtConstruction) {
  // The checks the batched decision path relies on run once, when the
  // model resolves its cores' sensor positions at construction.
  CoreModel core;
  core.selected_rows = {3};
  core.block_rows = {0, 1};
  core.alpha = linalg::Matrix(2, 1);
  core.intercept = linalg::Vector(2);
  EXPECT_NO_THROW(PlacementModel({core}, {30}, 2));
  EXPECT_THROW(PlacementModel({core}, {30}, 1), vmap::ContractError);
  CoreModel wrong_shape = core;
  wrong_shape.alpha = linalg::Matrix(2, 2);
  EXPECT_THROW(PlacementModel({wrong_shape}, {30}, 2), vmap::ContractError);
  CoreModel short_intercept = core;
  short_intercept.intercept = linalg::Vector(1);
  EXPECT_THROW(PlacementModel({short_intercept}, {30}, 2),
               vmap::ContractError);
}

}  // namespace
}  // namespace vmap::core
