// Focused unit tests for dataset collection options and pipeline edge
// cases (beyond the end-to-end integration suite): multi-node monitoring,
// FA candidates, column slicing, selection fallbacks, config guards, and
// the collect's independence of the thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <set>

#include "chip/critical_nodes.hpp"
#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/ols_model.hpp"
#include "core/pipeline.hpp"
#include "grid/power_grid.hpp"
#include "grid/transient.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "workload/activity.hpp"
#include "workload/benchmark_suite.hpp"
#include "workload/power_model.hpp"

namespace vmap::core {
namespace {

/// Tiny collection config so each test can afford its own dataset.
DataConfig tiny_config() {
  DataConfig c = small_setup().data;
  c.warmup_steps = 30;
  c.train_maps_per_benchmark = 40;
  c.test_maps_per_benchmark = 15;
  c.calibration_steps = 80;
  return c;
}

class DatasetPipelineTest : public ::testing::Test {
 protected:
  DatasetPipelineTest()
      : setup_(small_setup()), grid_(setup_.grid), plan_(grid_, setup_.floorplan) {
    suite_ = workload::parsec_like_suite();
    suite_.resize(2);
  }
  Dataset collect(const DataConfig& config) const {
    return DataCollector(grid_, plan_, config).collect(suite_);
  }
  ExperimentSetup setup_;
  grid::PowerGrid grid_;
  chip::Floorplan plan_;
  std::vector<workload::BenchmarkProfile> suite_;
};

TEST_F(DatasetPipelineTest, MultiNodeMonitoringGrowsResponseRows) {
  DataConfig config = tiny_config();
  config.critical_nodes_per_block = 3;
  const Dataset data = collect(config);
  // Small blocks can own fewer than 3 nodes, so K is bounded, not exact.
  EXPECT_GT(data.num_blocks(), plan_.block_count());
  EXPECT_LE(data.num_blocks(), 3 * plan_.block_count());
  ASSERT_EQ(data.critical_block.size(), data.num_blocks());
  // Per-block counts respect block sizes; all nodes belong to their block.
  std::map<std::size_t, std::size_t> per_block;
  for (std::size_t row = 0; row < data.num_blocks(); ++row) {
    ++per_block[data.critical_block[row]];
    const auto owner = plan_.block_of_node(data.critical_nodes[row]);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(*owner, data.critical_block[row]);
  }
  for (const auto& [block_id, count] : per_block)
    EXPECT_LE(count, std::min<std::size_t>(3, plan_.block(block_id).nodes.size()));
}

TEST_F(DatasetPipelineTest, PipelineHandlesMultiNodeMonitoring) {
  DataConfig config = tiny_config();
  config.critical_nodes_per_block = 2;
  const Dataset data = collect(config);

  PipelineConfig pc;
  pc.lambda = 6.0;
  const PlacementModel model = fit_placement(data, plan_, pc);
  const linalg::Matrix pred = model.predict(data.x_test);
  EXPECT_EQ(pred.rows(), data.num_blocks());
  EXPECT_EQ(pred.cols(), data.x_test.cols());
  // Prediction stays accurate with the richer response set.
  EXPECT_LT(relative_error(data.f_test, pred), 0.03);
}

TEST_F(DatasetPipelineTest, FaCandidatesExtendTheCandidateSet) {
  DataConfig ba_config = tiny_config();
  DataConfig fa_config = tiny_config();
  fa_config.include_fa_candidates = true;
  const Dataset ba = collect(ba_config);
  const Dataset fa = collect(fa_config);
  EXPECT_GT(fa.num_candidates(), ba.num_candidates());
  // BA candidates are a subset of the FA-enabled candidate set.
  std::set<std::size_t> fa_nodes(fa.candidate_nodes.begin(),
                                 fa.candidate_nodes.end());
  for (std::size_t node : ba.candidate_nodes)
    EXPECT_TRUE(fa_nodes.count(node)) << "node " << node;
  // And some candidates now genuinely sit inside blocks.
  std::size_t inside = 0;
  for (std::size_t node : fa.candidate_nodes)
    if (plan_.is_fa_node(node)) ++inside;
  EXPECT_GT(inside, 0u);
}

TEST_F(DatasetPipelineTest, CandidateStrideThinsTheLattice) {
  DataConfig dense = tiny_config();
  dense.candidate_stride = 1;
  DataConfig sparse = tiny_config();
  sparse.candidate_stride = 2;
  const Dataset d1 = collect(dense);
  const Dataset d2 = collect(sparse);
  EXPECT_GT(d1.num_candidates(), 2 * d2.num_candidates());
}

TEST_F(DatasetPipelineTest, SliceColsExtractsExactRanges) {
  linalg::Matrix m(2, 5);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      m(r, c) = static_cast<double>(10 * r + c);
  const linalg::Matrix s = slice_cols(m, 1, 4);
  EXPECT_EQ(s.cols(), 3u);
  EXPECT_DOUBLE_EQ(s(1, 0), 11.0);
  EXPECT_DOUBLE_EQ(s(0, 2), 3.0);
  EXPECT_THROW(slice_cols(m, 3, 6), vmap::ContractError);
  EXPECT_EQ(slice_cols(m, 2, 2).cols(), 0u);
}

TEST_F(DatasetPipelineTest, RowsForCorePartitionAndCover) {
  const Dataset data = collect(tiny_config());
  std::set<std::size_t> seen_candidates, seen_criticals;
  for (std::size_t c = 0; c < plan_.core_count(); ++c) {
    for (std::size_t row : data.candidate_rows_for_core(plan_, c))
      EXPECT_TRUE(seen_candidates.insert(row).second);
    for (std::size_t row : data.critical_rows_for_core(plan_, c))
      EXPECT_TRUE(seen_criticals.insert(row).second);
  }
  EXPECT_EQ(seen_candidates.size(), data.num_candidates());
  EXPECT_EQ(seen_criticals.size(), data.num_blocks());
}

TEST_F(DatasetPipelineTest, HighThresholdFallsBackToOneSensorPerCore) {
  const Dataset data = collect(tiny_config());
  PipelineConfig pc;
  pc.lambda = 2.0;
  pc.threshold = 1e9;  // rejects everything -> fallback picks the strongest
  const PlacementModel model = fit_placement(data, plan_, pc);
  for (const auto& core : model.cores())
    EXPECT_EQ(core.selected_rows.size(), 1u);
}

TEST_F(DatasetPipelineTest, TopKClampsToCandidatesAndSampleBudget) {
  const Dataset data = collect(tiny_config());
  PipelineConfig pc;
  pc.lambda = 2.0;
  pc.sensors_per_core = 100000;  // more than candidates or samples allow
  const PlacementModel model = fit_placement(data, plan_, pc);
  const std::size_t sample_cap = data.x_train.cols() - 1;
  for (const auto& core : model.cores()) {
    EXPECT_EQ(core.selected_rows.size(),
              std::min(core.candidate_rows.size(), sample_cap));
  }
}

TEST_F(DatasetPipelineTest, ConfigGuardsFireEarly) {
  DataConfig bad = tiny_config();
  bad.dt = 0.0;
  EXPECT_THROW(DataCollector(grid_, plan_, bad), vmap::ContractError);
  bad = tiny_config();
  bad.map_stride = 0;
  EXPECT_THROW(DataCollector(grid_, plan_, bad), vmap::ContractError);
  bad = tiny_config();
  bad.train_maps_per_benchmark = 1;
  EXPECT_THROW(DataCollector(grid_, plan_, bad), vmap::ContractError);

  const Dataset data = collect(tiny_config());
  PipelineConfig pc;
  pc.lambda = 0.0;
  EXPECT_THROW(fit_placement(data, plan_, pc), vmap::ContractError);
  pc.lambda = 1.0;
  pc.threshold = -1.0;
  EXPECT_THROW(fit_placement(data, plan_, pc), vmap::ContractError);
}

TEST_F(DatasetPipelineTest, EmptySuiteRejected) {
  DataCollector collector(grid_, plan_, tiny_config());
  EXPECT_THROW(collector.collect({}), vmap::ContractError);
}

TEST_F(DatasetPipelineTest, SingleBenchmarkCollectionWorks) {
  auto one = suite_;
  one.resize(1);
  const Dataset data =
      DataCollector(grid_, plan_, tiny_config()).collect(one);
  EXPECT_EQ(data.benchmarks.size(), 1u);
  EXPECT_EQ(data.x_train.cols(), tiny_config().train_maps_per_benchmark);
}

TEST_F(DatasetPipelineTest, DeterministicAcrossCollections) {
  const Dataset a = collect(tiny_config());
  const Dataset b = collect(tiny_config());
  ASSERT_EQ(a.x_train.cols(), b.x_train.cols());
  EXPECT_DOUBLE_EQ(a.current_scale, b.current_scale);
  for (std::size_t r = 0; r < a.x_train.rows(); r += 17)
    for (std::size_t c = 0; c < a.x_train.cols(); c += 7)
      EXPECT_DOUBLE_EQ(a.x_train(r, c), b.x_train(r, c));
}

/// The dataset DataCollector::collect promises, computed the plain way: the
/// unit-scale calibration (by target emergency rate, as tiny_config()
/// sets), then one benchmark after another, each on its own one-lane
/// simulator fed per-node loads (PowerModel::to_node_currents,
/// TransientSim::step()) and read in node order.
Dataset collect_one_lane(const grid::PowerGrid& grid,
                         const chip::Floorplan& plan, const DataConfig& config,
                         const std::vector<workload::BenchmarkProfile>& suite) {
  Dataset d;
  for (std::size_t node = 0; node < grid.device_node_count(); ++node) {
    if (plan.is_fa_node(node) && !config.include_fa_candidates) continue;
    const auto [x, y] = grid.node_xy(node);
    if (x % config.candidate_stride == 0 && y % config.candidate_stride == 0)
      d.candidate_nodes.push_back(node);
  }
  linalg::Vector currents(grid.node_count());
  {
    grid::TransientSim sim(grid, config.dt);
    const workload::PowerModel unit(plan, 1.0);
    workload::ActivityGenerator generator(plan, suite.front(),
                                          Rng(config.seed ^ 0xCA11B8A7E));
    linalg::Vector min_voltage(grid.node_count(),
                               std::numeric_limits<double>::infinity());
    std::vector<double> droop;
    for (std::size_t s = 0; s < config.calibration_steps; ++s) {
      unit.to_node_currents(generator.step(), currents);
      const linalg::Vector& v = sim.step(currents);
      for (std::size_t i = 0; i < v.size(); ++i)
        min_voltage[i] = std::min(min_voltage[i], v[i]);
      droop.push_back(grid.config().vdd - v.min());
    }
    std::sort(droop.begin(), droop.end());
    const double margin = grid.config().vdd - config.emergency_threshold;
    const auto index = static_cast<std::size_t>(
        (1.0 - config.target_emergency_rate) *
        static_cast<double>(droop.size() - 1));
    d.current_scale =
        margin / std::max(droop[index], 0.05 * droop.back());
    const chip::CriticalSet critical = chip::select_critical_nodes_n(
        plan, min_voltage, config.critical_nodes_per_block);
    d.critical_nodes = critical.nodes;
  }
  const std::size_t train = config.train_maps_per_benchmark;
  const std::size_t test = config.test_maps_per_benchmark;
  const std::size_t m = d.candidate_nodes.size(), k = d.critical_nodes.size();
  d.x_train = linalg::Matrix(m, suite.size() * train);
  d.f_train = linalg::Matrix(k, suite.size() * train);
  d.x_test = linalg::Matrix(m, suite.size() * test);
  d.f_test = linalg::Matrix(k, suite.size() * test);
  const workload::PowerModel model(plan, d.current_scale);
  for (std::size_t b = 0; b < suite.size(); ++b) {
    grid::TransientSim sim(grid, config.dt);
    workload::ActivityGenerator generator(
        plan, suite[b], Rng(config.seed + 0x9E3779B9 * (b + 1)));
    const auto advance = [&]() -> const linalg::Vector& {
      model.to_node_currents(generator.step(), currents);
      return sim.step(currents);
    };
    for (std::size_t s = 0; s < config.warmup_steps; ++s) advance();
    for (std::size_t map = 0; map < train + test; ++map) {
      if (map > 0)
        for (std::size_t s = 1; s < config.map_stride; ++s) advance();
      const linalg::Vector& v = advance();
      linalg::Matrix& x = map < train ? d.x_train : d.x_test;
      linalg::Matrix& f = map < train ? d.f_train : d.f_test;
      const std::size_t col =
          map < train ? b * train + map : b * test + map - train;
      for (std::size_t r = 0; r < m; ++r) x(r, col) = v[d.candidate_nodes[r]];
      for (std::size_t r = 0; r < k; ++r) f(r, col) = v[d.critical_nodes[r]];
    }
  }
  return d;
}

bool same_bytes(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

TEST_F(DatasetPipelineTest, CollectIsIndependentOfTheThreadCount) {
  // Seven benchmarks run as one panel of seven lanes at one thread and as
  // panels of four and three lanes at two to five threads, so one panel is
  // always partial. Nine run as panels of eight and one at one thread and
  // of four, four and one at two, which the two threads share turn by
  // turn. Every thread count must reproduce the serial one-lane dataset
  // byte for byte.
  const DataConfig config = tiny_config();
  for (std::size_t benchmarks : {7, 9}) {
    auto suite = workload::parsec_like_suite();
    suite.resize(benchmarks);
    const Dataset want = collect_one_lane(grid_, plan_, config, suite);
    for (std::size_t threads = 1; threads <= 5; ++threads) {
      SCOPED_TRACE(std::to_string(benchmarks) + " benchmarks, threads=" +
                   std::to_string(threads));
      set_thread_count(threads);
      const Dataset got = DataCollector(grid_, plan_, config).collect(suite);
      EXPECT_EQ(std::memcmp(&got.current_scale, &want.current_scale,
                            sizeof(double)),
                0);
      EXPECT_EQ(got.candidate_nodes, want.candidate_nodes);
      EXPECT_EQ(got.critical_nodes, want.critical_nodes);
      EXPECT_TRUE(same_bytes(got.x_train, want.x_train));
      EXPECT_TRUE(same_bytes(got.f_train, want.f_train));
      EXPECT_TRUE(same_bytes(got.x_test, want.x_test));
      EXPECT_TRUE(same_bytes(got.f_test, want.f_test));
    }
  }
  set_thread_count(0);
}

}  // namespace
}  // namespace vmap::core
