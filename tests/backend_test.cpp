// Model-backend tests: error paths (unknown names), every built-in, and the
// bit-identity guarantee — the default group_lasso+ols path through the
// backend seams must reproduce the pre-refactor inline pipeline exactly,
// bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "chip/floorplan.hpp"
#include "core/backend.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/group_lasso.hpp"
#include "core/normalizer.hpp"
#include "core/ols_model.hpp"
#include "core/pipeline.hpp"
#include "core/sensor_selection.hpp"
#include "grid/power_grid.hpp"
#include "util/resilience.hpp"
#include "util/status.hpp"
#include "workload/benchmark_suite.hpp"

namespace vmap::core {
namespace {

class BackendTest : public ::testing::Test {
 protected:
  BackendTest()
      : setup_(small_setup()),
        grid_(setup_.grid),
        plan_(grid_, setup_.floorplan) {}

  /// One dataset for the whole suite: collection dominates test time.
  const Dataset& data() {
    static Dataset* cached = nullptr;
    if (!cached) {
      DataConfig config = small_setup().data;
      config.warmup_steps = 30;
      config.train_maps_per_benchmark = 40;
      config.test_maps_per_benchmark = 15;
      config.calibration_steps = 80;
      auto suite = workload::parsec_like_suite();
      suite.resize(2);
      cached = new Dataset(DataCollector(grid_, plan_, config).collect(suite));
    }
    return *cached;
  }

  ExperimentSetup setup_;
  grid::PowerGrid grid_;
  chip::Floorplan plan_;
};

TEST_F(BackendTest, UnknownNamesAreInvalidArgumentNotAbort) {
  const auto sel = make_selection_backend("no_such_selector");
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), ErrorCode::kInvalidArgument);
  // The message lists the known names, so a typo is self-diagnosing.
  EXPECT_NE(sel.status().to_string().find("group_lasso"), std::string::npos);

  const auto pred = make_prediction_backend("no_such_predictor");
  ASSERT_FALSE(pred.ok());
  EXPECT_EQ(pred.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(pred.status().to_string().find("ols"), std::string::npos);
}

TEST_F(BackendTest, FitPlacementRejectsUnknownBackendsUpfront) {
  PipelineConfig config;
  config.lambda = 6.0;
  config.selection = "no_such_selector";
  try {
    fit_placement(data(), plan_, config);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), ErrorCode::kInvalidArgument);
  }
  config.selection = "group_lasso";
  config.prediction = "no_such_predictor";
  try {
    fit_placement(data(), plan_, config);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), ErrorCode::kInvalidArgument);
  }
}

/// The pre-refactor per-core fit, replicated inline operation for
/// operation (normalize -> budgeted GL -> capped selection -> OLS refit).
/// The registry-routed default path must match it to the last bit.
CoreModel legacy_fit_core(const Dataset& data, const chip::Floorplan& plan,
                          std::size_t core_index,
                          const PipelineConfig& config) {
  CoreModel core;
  core.core = core_index;
  core.candidate_rows = data.candidate_rows_for_core(plan, core_index);
  core.block_rows = data.critical_rows_for_core(plan, core_index);

  const linalg::Matrix x = data.x_train.select_rows(core.candidate_rows);
  const linalg::Matrix f = data.f_train.select_rows(core.block_rows);
  const Normalizer x_norm(x);
  const Normalizer f_norm(f);
  const GroupLassoProblem problem =
      GroupLassoProblem::from_data(x_norm.normalize(x), f_norm.normalize(f));
  GroupLasso solver(problem, config.gl_options);
  const GroupLassoResult gl = solver.solve_budget(config.lambda);
  if (!gl.status.ok()) throw StatusError(gl.status);
  core.group_norms = gl.group_norms;

  const std::size_t cap =
      std::min(core.candidate_rows.size(), data.x_train.cols() - 1);
  SensorSelection selection =
      config.sensors_per_core
          ? select_top_k(gl,
                         std::min<std::size_t>(*config.sensors_per_core, cap))
          : select_sensors(gl, config.threshold);
  if (selection.indices.empty()) selection = select_top_k(gl, 1);
  for (std::size_t local : selection.indices)
    core.selected_rows.push_back(core.candidate_rows[local]);

  const linalg::Matrix x_sel = data.x_train.select_rows(core.selected_rows);
  OlsModel ols(x_sel, f, nullptr);
  core.alpha = ols.alpha();
  core.intercept = ols.intercept();
  return core;
}

TEST_F(BackendTest, DefaultPathBitIdenticalToLegacyPipeline) {
  PipelineConfig config;
  config.lambda = 6.0;
  config.sensors_per_core = 2;
  ASSERT_EQ(config.selection, "group_lasso");
  ASSERT_EQ(config.prediction, "ols");

  const PlacementModel model = fit_placement(data(), plan_, config);
  ASSERT_EQ(model.cores().size(), plan_.core_count());
  for (std::size_t c = 0; c < plan_.core_count(); ++c) {
    const CoreModel legacy = legacy_fit_core(data(), plan_, c, config);
    const CoreModel& routed = model.cores()[c];
    ASSERT_EQ(routed.selected_rows, legacy.selected_rows) << "core " << c;
    ASSERT_EQ(routed.group_norms.size(), legacy.group_norms.size());
    for (std::size_t m = 0; m < legacy.group_norms.size(); ++m)
      ASSERT_EQ(routed.group_norms[m], legacy.group_norms[m])
          << "core " << c << " norm " << m;  // exact, not approximate
    ASSERT_EQ(routed.alpha.rows(), legacy.alpha.rows());
    ASSERT_EQ(routed.alpha.cols(), legacy.alpha.cols());
    for (std::size_t k = 0; k < legacy.alpha.rows(); ++k) {
      ASSERT_EQ(routed.intercept[k], legacy.intercept[k])
          << "core " << c << " block " << k;
      for (std::size_t j = 0; j < legacy.alpha.cols(); ++j)
        ASSERT_EQ(routed.alpha(k, j), legacy.alpha(k, j))
            << "core " << c << " (" << k << "," << j << ")";
    }
  }
}

TEST_F(BackendTest, CapHitNoteCarriesTheDualityGap) {
  // One sweep cannot certify any core's solve, so every core's fit must
  // surface as a kNotConverged note that reports the gap it stopped at.
  PipelineConfig config;
  config.lambda = 6.0;
  config.sensors_per_core = 2;
  config.gl_options.max_iterations = 1;
  ResilienceReport report;
  fit_placement(data(), plan_, config, &report);
  std::size_t notes = 0;
  for (const ResilienceEvent& e : report.events()) {
    if (e.stage != "group_lasso") continue;
    ++notes;
    EXPECT_EQ(e.code, ErrorCode::kNotConverged);
    EXPECT_GT(e.value, config.gl_options.tolerance);
    EXPECT_NE(e.detail.find("duality gap"), std::string::npos) << e.detail;
  }
  EXPECT_EQ(notes, plan_.core_count());
}

TEST_F(BackendTest, SpatialSurrogateFitsAndIsDeterministic) {
  PipelineConfig config;
  config.lambda = 6.0;
  config.sensors_per_core = 2;
  config.prediction = "spatial";
  const PlacementModel a = fit_placement(data(), plan_, config);
  const PlacementModel b = fit_placement(data(), plan_, config);
  // Same selection as the default path (selection backend unchanged), and
  // a usable model: small relative error on held-out maps.
  const double err = relative_error(data().f_test, a.predict(data().x_test));
  EXPECT_LT(err, 0.05) << "surrogate error off the rails";
  ASSERT_EQ(a.cores().size(), b.cores().size());
  for (std::size_t c = 0; c < a.cores().size(); ++c) {
    const auto& ca = a.cores()[c];
    const auto& cb = b.cores()[c];
    ASSERT_EQ(ca.selected_rows, cb.selected_rows);
    for (std::size_t k = 0; k < ca.alpha.rows(); ++k) {
      ASSERT_EQ(ca.intercept[k], cb.intercept[k]);
      for (std::size_t j = 0; j < ca.alpha.cols(); ++j)
        ASSERT_EQ(ca.alpha(k, j), cb.alpha(k, j));
    }
  }
}

TEST_F(BackendTest, GreedySelectionWorksAndNeedsABudget) {
  PipelineConfig config;
  config.lambda = 6.0;
  config.selection = "greedy_r2";
  // No sensors_per_core: greedy_r2 has no threshold rule -> InvalidArgument.
  try {
    fit_placement(data(), plan_, config);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), ErrorCode::kInvalidArgument);
  }
  config.sensors_per_core = 2;
  const PlacementModel model = fit_placement(data(), plan_, config);
  for (const auto& core : model.cores()) {
    EXPECT_EQ(core.selected_rows.size(), 2u);
    EXPECT_TRUE(std::is_sorted(core.selected_rows.begin(),
                               core.selected_rows.end()));
  }
  EXPECT_LT(relative_error(data().f_test, model.predict(data().x_test)),
            0.05);
}

TEST_F(BackendTest, RawCoefficientsRequireASelectionBackendThatHasThem) {
  PipelineConfig config;
  config.lambda = 6.0;
  config.sensors_per_core = 2;
  config.refit_ols = false;
  config.selection = "greedy_r2";
  try {
    fit_placement(data(), plan_, config);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(e.status().to_string().find("group_lasso"), std::string::npos);
  }
  // group_lasso still supports the no-refit ablation through the seam.
  config.selection = "group_lasso";
  const PlacementModel model = fit_placement(data(), plan_, config);
  EXPECT_LT(relative_error(data().f_test, model.predict(data().x_test)), 0.5);
}

}  // namespace
}  // namespace vmap::core
