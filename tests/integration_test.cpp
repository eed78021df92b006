// End-to-end integration on the miniature platform: data collection,
// pipeline fitting, prediction accuracy, baseline comparison, dataset
// caching, and full-chip map generation.

#include <gtest/gtest.h>

#include <cstdio>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/eagle_eye.hpp"
#include "core/emergency.hpp"
#include "core/experiment.hpp"
#include "core/ols_model.hpp"
#include "core/pipeline.hpp"
#include "core/voltage_map.hpp"
#include "grid/power_grid.hpp"
#include "util/assert.hpp"
#include "workload/benchmark_suite.hpp"

namespace vmap::core {
namespace {

/// Shared fixture: collects one small dataset for the whole test binary.
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    setup_ = new ExperimentSetup(small_setup());
    grid_ = new grid::PowerGrid(setup_->grid);
    plan_ = new chip::Floorplan(*grid_, setup_->floorplan);
    auto suite = workload::parsec_like_suite();
    suite.resize(3);  // three benchmarks keep the fixture fast
    DataCollector collector(*grid_, *plan_, setup_->data);
    data_ = new Dataset(collector.collect(suite));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete plan_;
    delete grid_;
    delete setup_;
    data_ = nullptr;
    plan_ = nullptr;
    grid_ = nullptr;
    setup_ = nullptr;
  }

  static ExperimentSetup* setup_;
  static grid::PowerGrid* grid_;
  static chip::Floorplan* plan_;
  static Dataset* data_;
};

ExperimentSetup* IntegrationTest::setup_ = nullptr;
grid::PowerGrid* IntegrationTest::grid_ = nullptr;
chip::Floorplan* IntegrationTest::plan_ = nullptr;
Dataset* IntegrationTest::data_ = nullptr;

TEST_F(IntegrationTest, DatasetShapesAreConsistent) {
  EXPECT_EQ(data_->num_blocks(), plan_->block_count());
  EXPECT_EQ(data_->x_train.rows(), data_->num_candidates());
  EXPECT_EQ(data_->f_train.rows(), data_->num_blocks());
  EXPECT_EQ(data_->x_train.cols(), 3 * setup_->data.train_maps_per_benchmark);
  EXPECT_EQ(data_->x_test.cols(), 3 * setup_->data.test_maps_per_benchmark);
  EXPECT_EQ(data_->benchmarks.size(), 3u);
}

TEST_F(IntegrationTest, VoltagesArePhysical) {
  for (const auto* m : {&data_->x_train, &data_->f_train, &data_->x_test,
                        &data_->f_test}) {
    for (std::size_t r = 0; r < m->rows(); ++r) {
      for (std::size_t c = 0; c < m->cols(); ++c) {
        EXPECT_GT((*m)(r, c), 0.5);
        EXPECT_LE((*m)(r, c), setup_->grid.vdd + 1e-9);
      }
    }
  }
}

TEST_F(IntegrationTest, CandidatesAreBaNodesAndCriticalsAreFa) {
  for (std::size_t node : data_->candidate_nodes)
    EXPECT_FALSE(plan_->is_fa_node(node));
  for (std::size_t node : data_->critical_nodes)
    EXPECT_TRUE(plan_->is_fa_node(node));
}

TEST_F(IntegrationTest, EmergenciesOccurButAreNotUbiquitous) {
  const auto truth =
      emergency_ground_truth(data_->f_test, setup_->data.emergency_threshold);
  std::size_t count = 0;
  for (bool t : truth) count += t ? 1 : 0;
  EXPECT_GT(count, 0u);
  EXPECT_LT(count, truth.size());
}

TEST_F(IntegrationTest, BenchmarkSlicesPartitionColumns) {
  std::size_t covered = 0;
  for (const auto& b : data_->benchmarks) {
    EXPECT_LE(b.train_end, data_->x_train.cols());
    covered += b.train_end - b.train_begin;
  }
  EXPECT_EQ(covered, data_->x_train.cols());
  const auto x0 = data_->x_train_for(0);
  EXPECT_EQ(x0.cols(), setup_->data.train_maps_per_benchmark);
  EXPECT_EQ(x0.rows(), data_->num_candidates());
}

TEST_F(IntegrationTest, PipelineSelectsSensorsAndPredictsAccurately) {
  PipelineConfig config;
  config.lambda = 8.0;
  const PlacementModel model = fit_placement(*data_, *plan_, config);

  EXPECT_EQ(model.cores().size(), plan_->core_count());
  for (const auto& core : model.cores()) {
    EXPECT_GE(core.selected_rows.size(), 1u);
    EXPECT_EQ(core.alpha.rows(), core.block_rows.size());
    EXPECT_EQ(core.alpha.cols(), core.selected_rows.size());
  }

  const linalg::Matrix f_pred = model.predict(data_->x_test);
  const double rel = relative_error(data_->f_test, f_pred);
  EXPECT_LT(rel, 0.02);  // the paper's "much less than 0.01" regime
}

TEST_F(IntegrationTest, SampleAndMatrixPredictionsAgree) {
  PipelineConfig config;
  config.lambda = 8.0;
  const PlacementModel model = fit_placement(*data_, *plan_, config);
  const linalg::Matrix all = model.predict(data_->x_test);
  const linalg::Vector one = model.predict_sample(data_->x_test.col(5));
  for (std::size_t k = 0; k < one.size(); ++k)
    EXPECT_NEAR(one[k], all(k, 5), 1e-12);
}

TEST_F(IntegrationTest, MoreSensorsGiveLowerError) {
  PipelineConfig tight;
  tight.sensors_per_core = 2;
  PipelineConfig loose;
  loose.sensors_per_core = 8;
  tight.lambda = loose.lambda = 20.0;
  const auto model_tight = fit_placement(*data_, *plan_, tight);
  const auto model_loose = fit_placement(*data_, *plan_, loose);
  const double err_tight =
      relative_error(data_->f_test, model_tight.predict(data_->x_test));
  const double err_loose =
      relative_error(data_->f_test, model_loose.predict(data_->x_test));
  EXPECT_LE(err_loose, err_tight * 1.05);
}

TEST_F(IntegrationTest, OlsRefitBeatsRawGlCoefficients) {
  PipelineConfig with_refit;
  with_refit.lambda = 4.0;
  PipelineConfig no_refit = with_refit;
  no_refit.refit_ols = false;
  const auto refit_model = fit_placement(*data_, *plan_, with_refit);
  const auto raw_model = fit_placement(*data_, *plan_, no_refit);
  const double err_refit =
      rmse(data_->f_test, refit_model.predict(data_->x_test));
  const double err_raw = rmse(data_->f_test, raw_model.predict(data_->x_test));
  EXPECT_LT(err_refit, err_raw);
}

TEST_F(IntegrationTest, ProposedBeatsEagleEyeOnMissRate) {
  PipelineConfig config;
  config.sensors_per_core = 2;
  config.lambda = 20.0;
  const auto model = fit_placement(*data_, *plan_, config);
  const auto f_pred = model.predict(data_->x_test);
  const double vth = setup_->data.emergency_threshold;
  const auto proposed = evaluate_prediction_detector(data_->f_test, f_pred, vth);

  EagleEyeOptions options;
  options.strategy = EagleEyeStrategy::kWorstNoise;
  const auto eagle_rows = eagle_eye_place(*data_, *plan_, 2, options);
  const auto eagle = evaluate_sensor_detector(data_->f_test, data_->x_test,
                                              eagle_rows, vth);

  EXPECT_LE(proposed.miss_rate(), eagle.miss_rate());
  // TE includes wrong alarms, where Eagle-Eye's conservative placement can
  // edge ahead at tiny sensor counts (the paper observes the same); on
  // this 90-map fixture allow one-sample noise around parity.
  EXPECT_LE(proposed.total_error_rate(),
            eagle.total_error_rate() * 1.3 + 0.02);
}

TEST_F(IntegrationTest, EagleEyePlacementsAreValidCandidates) {
  for (auto strategy :
       {EagleEyeStrategy::kWorstNoise, EagleEyeStrategy::kGreedyCoverage}) {
    EagleEyeOptions options;
    options.strategy = strategy;
    const auto rows = eagle_eye_place(*data_, *plan_, 2, options);
    EXPECT_EQ(rows.size(), 2 * plan_->core_count());
    for (std::size_t row : rows) EXPECT_LT(row, data_->num_candidates());
  }
}

TEST_F(IntegrationTest, WholeChipModeWorks) {
  PipelineConfig config;
  config.per_core = false;
  config.lambda = 16.0;
  const auto model = fit_placement(*data_, *plan_, config);
  EXPECT_EQ(model.cores().size(), 1u);
  const double rel =
      relative_error(data_->f_test, model.predict(data_->x_test));
  EXPECT_LT(rel, 0.05);
}

TEST_F(IntegrationTest, DatasetRoundTripsThroughCache) {
  const std::string path = testing::TempDir() + "vmap_dataset_cache.bin";
  data_->save(path);
  const Dataset loaded = Dataset::load(path);
  EXPECT_EQ(loaded.candidate_nodes, data_->candidate_nodes);
  EXPECT_EQ(loaded.critical_nodes, data_->critical_nodes);
  EXPECT_EQ(loaded.current_scale, data_->current_scale);
  ASSERT_EQ(loaded.x_train.cols(), data_->x_train.cols());
  for (std::size_t r = 0; r < loaded.x_train.rows(); ++r)
    for (std::size_t c = 0; c < loaded.x_train.cols(); ++c)
      EXPECT_DOUBLE_EQ(loaded.x_train(r, c), data_->x_train(r, c));
  EXPECT_EQ(loaded.benchmarks.size(), data_->benchmarks.size());
  EXPECT_EQ(loaded.benchmarks[1].name, data_->benchmarks[1].name);
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, LoadOrCollectUsesCache) {
  const std::string path = testing::TempDir() + "vmap_dataset_cache2.bin";
  data_->save(path);
  auto suite = workload::parsec_like_suite();
  suite.resize(3);
  // Must load (identical config), not re-collect: verified by identity of
  // a few entries and by the call returning quickly enough to matter.
  const Dataset loaded =
      load_or_collect(path, *grid_, *plan_, setup_->data, suite);
  EXPECT_DOUBLE_EQ(loaded.current_scale, data_->current_scale);
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, CacheMismatchTriggersRecollect) {
  const std::string path = testing::TempDir() + "vmap_dataset_cache3.bin";
  data_->save(path);
  auto suite = workload::parsec_like_suite();
  suite.resize(3);
  DataConfig changed = setup_->data;
  changed.seed += 1;  // different experiment
  const Dataset recollected =
      load_or_collect(path, *grid_, *plan_, changed, suite);
  EXPECT_EQ(recollected.config.seed, changed.seed);
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, VoltageMapInterpolatesKnownValues) {
  PipelineConfig config;
  config.lambda = 8.0;
  const auto model = fit_placement(*data_, *plan_, config);

  // Known nodes: the selected sensors (measured) + critical nodes
  // (predicted).
  std::vector<std::size_t> known = model.sensor_nodes();
  known.insert(known.end(), data_->critical_nodes.begin(),
               data_->critical_nodes.end());
  VoltageMapBuilder builder(*grid_, known);

  const std::size_t sample = 3;
  const linalg::Vector x_sample = data_->x_test.col(sample);
  const linalg::Vector f_pred = model.predict_sample(x_sample);
  linalg::Vector known_values(known.size());
  for (std::size_t i = 0; i < model.sensor_rows().size(); ++i)
    known_values[i] = x_sample[model.sensor_rows()[i]];
  for (std::size_t k = 0; k < f_pred.size(); ++k)
    known_values[model.sensor_rows().size() + k] = f_pred[k];

  const linalg::Vector map = builder.build(known_values);
  ASSERT_EQ(map.size(), grid_->node_count());
  // Known nodes are reproduced exactly.
  for (std::size_t i = 0; i < known.size(); ++i)
    EXPECT_DOUBLE_EQ(map[known[i]], known_values[i]);
  // Harmonic interpolation with VDD pull-up: everything within
  // [min(known), VDD].
  const double lo = known_values.min() - 1e-9;
  for (std::size_t node = 0; node < map.size(); ++node) {
    EXPECT_GE(map[node], lo);
    EXPECT_LE(map[node], setup_->grid.vdd + 1e-9);
  }
}

TEST_F(IntegrationTest, VoltageMapAllVddStaysVdd) {
  std::vector<std::size_t> known{0, 5, 17};
  VoltageMapBuilder builder(*grid_, known);
  const linalg::Vector map =
      builder.build(linalg::Vector(3, setup_->grid.vdd));
  for (std::size_t node = 0; node < map.size(); ++node)
    EXPECT_NEAR(map[node], setup_->grid.vdd, 1e-9);
}

TEST_F(IntegrationTest, VoltageMapRejectsBadInput) {
  EXPECT_THROW(VoltageMapBuilder(*grid_, {}), vmap::ContractError);
  EXPECT_THROW(VoltageMapBuilder(*grid_, {0, 0}), vmap::ContractError);
  VoltageMapBuilder builder(*grid_, {0, 1});
  EXPECT_THROW(builder.build(linalg::Vector(3)), vmap::ContractError);
}

}  // namespace
}  // namespace vmap::core
