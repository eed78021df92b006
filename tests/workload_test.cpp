// Workload synthesis tests: suite integrity, generator determinism and
// physics-relevant behaviours (gating events, bursts), power model mapping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "chip/floorplan.hpp"
#include "core/experiment.hpp"
#include "grid/power_grid.hpp"
#include "grid/transient.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"
#include "workload/activity.hpp"
#include "workload/benchmark_suite.hpp"
#include "workload/power_model.hpp"
#include "workload/trace_io.hpp"

namespace vmap::workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : setup_(core::small_setup()),
        grid_(setup_.grid),
        plan_(grid_, setup_.floorplan) {}
  core::ExperimentSetup setup_;
  grid::PowerGrid grid_;
  chip::Floorplan plan_;
};

TEST(BenchmarkSuite, HasNineteenUniqueBenchmarks) {
  const auto suite = parsec_like_suite();
  EXPECT_EQ(suite.size(), 19u);
  std::set<std::string> names;
  for (const auto& p : suite) names.insert(p.name);
  EXPECT_EQ(names.size(), 19u);
}

TEST(BenchmarkSuite, ProfilesAreSane) {
  for (const auto& p : parsec_like_suite()) {
    EXPECT_GT(p.duty, 0.0);
    EXPECT_LE(p.duty, 1.0);
    EXPECT_GE(p.core_correlation, 0.0);
    EXPECT_LE(p.core_correlation, 1.0);
    EXPECT_GT(p.phase_period, 2.0);
    EXPECT_GE(p.gating_depth, 0.0);
    EXPECT_LE(p.gating_depth, 1.0);
    EXPECT_GT(p.burst_gain, 1.0);
  }
}

TEST(BenchmarkSuite, IndexLookup) {
  const auto suite = parsec_like_suite();
  EXPECT_EQ(benchmark_index(suite, "bm1"), 0u);
  EXPECT_EQ(benchmark_index(suite, "bm19"), 18u);
  EXPECT_THROW(benchmark_index(suite, "bm20"), vmap::ContractError);
  EXPECT_THROW(benchmark_index(suite, "xyz"), vmap::ContractError);
}

TEST(BenchmarkSuite, ArchetypeSuitesAreSaneAndDistinct) {
  const auto names = archetype_names();
  ASSERT_FALSE(names.empty());
  std::set<std::uint64_t> hashes;
  for (const auto& name : names) {
    const auto suite = archetype_suite(name);
    ASSERT_FALSE(suite.empty()) << name;
    for (const auto& p : suite) {
      EXPECT_GT(p.duty, 0.0) << name;
      EXPECT_LE(p.duty, 1.0) << name;
      EXPECT_GE(p.core_correlation, 0.0) << name;
      EXPECT_LE(p.core_correlation, 1.0) << name;
      EXPECT_GT(p.burst_gain, 1.0) << name;
    }
    // Same name twice → identical suite; each archetype keys a distinct
    // dataset, so the hashes must all differ.
    EXPECT_EQ(suite_hash(suite), suite_hash(archetype_suite(name))) << name;
    hashes.insert(suite_hash(suite));
  }
  EXPECT_EQ(hashes.size(), names.size());
  EXPECT_THROW(archetype_suite("no_such_archetype"), vmap::ContractError);
}

TEST(BenchmarkSuite, ParsecMiniIsASubsetOfTheFullSuite) {
  const auto mini = archetype_suite("parsec_mini");
  const auto full = parsec_like_suite();
  for (const auto& p : mini) {
    const std::size_t i = benchmark_index(full, p.name);
    EXPECT_EQ(suite_hash({full[i]}), suite_hash({p})) << p.name;
  }
}

TEST(BenchmarkSuite, SuiteHashIsStableAndSensitive) {
  const auto a = parsec_like_suite();
  const auto b = parsec_like_suite();
  EXPECT_EQ(suite_hash(a), suite_hash(b));
  auto c = parsec_like_suite();
  c[3].duty += 0.01;
  EXPECT_NE(suite_hash(a), suite_hash(c));
  auto d = parsec_like_suite();
  d[0].name = "renamed";
  EXPECT_NE(suite_hash(a), suite_hash(d));
  auto e = parsec_like_suite();
  e.resize(5);
  EXPECT_NE(suite_hash(a), suite_hash(e));
}

TEST_F(WorkloadTest, WakeInrushOvershootsAfterGating) {
  // Force frequent gating with strong inrush and verify that activity
  // right after a gated interval exceeds the pre-gating level.
  auto profile = parsec_like_suite()[0];
  profile.gating_rate = 0.02;
  profile.gating_depth = 0.95;
  profile.mean_gated_steps = 10;
  profile.wake_inrush_gain = 4.0;
  profile.wake_inrush_steps = 3;
  profile.noise_sigma = 0.0;
  ActivityGenerator gen(plan_, profile, Rng(21));
  const std::size_t probe = plan_.block_ids_in_core(0)[10];  // EXE block

  double max_level = 0.0, sum = 0.0;
  const int steps = 4000;
  for (int s = 0; s < steps; ++s) {
    const double level = gen.step()[probe];
    max_level = std::max(max_level, level);
    sum += level;
  }
  const double mean = sum / steps;
  EXPECT_GT(max_level, 2.5 * mean);  // inrush spikes well above the mean
}

TEST_F(WorkloadTest, GeneratorIsDeterministic) {
  const auto suite = parsec_like_suite();
  ActivityGenerator a(plan_, suite[0], Rng(77));
  ActivityGenerator b(plan_, suite[0], Rng(77));
  for (int s = 0; s < 50; ++s) {
    const auto& va = a.step();
    const auto& vb = b.step();
    for (std::size_t i = 0; i < va.size(); ++i)
      EXPECT_DOUBLE_EQ(va[i], vb[i]);
  }
}

TEST_F(WorkloadTest, DifferentSeedsProduceDifferentTraces) {
  const auto suite = parsec_like_suite();
  ActivityGenerator a(plan_, suite[0], Rng(1));
  ActivityGenerator b(plan_, suite[0], Rng(2));
  double max_diff = 0.0;
  for (int s = 0; s < 20; ++s) {
    const auto& va = a.step();
    const auto& vb = b.step();
    for (std::size_t i = 0; i < va.size(); ++i)
      max_diff = std::max(max_diff, std::abs(va[i] - vb[i]));
  }
  EXPECT_GT(max_diff, 1e-6);
}

TEST_F(WorkloadTest, ActivityIsNonNegativeAndBounded) {
  const auto suite = parsec_like_suite();
  for (const auto& profile : suite) {
    ActivityGenerator gen(plan_, profile, Rng(5));
    for (int s = 0; s < 100; ++s) {
      const auto& a = gen.step();
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_GE(a[i], 0.0);
        EXPECT_LT(a[i], 100.0);  // generous sanity cap
      }
    }
  }
}

TEST_F(WorkloadTest, ExecuteBlocksDrawMoreThanL2OnAverage) {
  const auto suite = parsec_like_suite();
  ActivityGenerator gen(plan_, suite[0], Rng(9));
  linalg::Vector mean(plan_.block_count());
  const int steps = 2000;
  for (int s = 0; s < steps; ++s) {
    const auto& a = gen.step();
    for (std::size_t i = 0; i < a.size(); ++i) mean[i] += a[i];
  }
  double exe = 0.0, l2 = 0.0;
  int exe_n = 0, l2_n = 0;
  for (const auto& block : plan_.blocks()) {
    if (block.unit == chip::UnitKind::kExecute) {
      exe += mean[block.id];
      ++exe_n;
    } else if (block.unit == chip::UnitKind::kL2Cache) {
      l2 += mean[block.id];
      ++l2_n;
    }
  }
  EXPECT_GT(exe / exe_n, l2 / l2_n);
}

TEST_F(WorkloadTest, GatingProducesDeepActivityDrops) {
  // With aggressive gating the per-unit activity must occasionally fall
  // to a small fraction of its mean.
  auto profile = parsec_like_suite()[0];
  profile.gating_rate = 0.05;
  profile.gating_depth = 0.95;
  ActivityGenerator gen(plan_, profile, Rng(13));
  const std::size_t probe = plan_.block_ids_in_core(0)[10];  // an EXE block
  double min_level = 1e300, mean_level = 0.0;
  const int steps = 3000;
  for (int s = 0; s < steps; ++s) {
    const double level = gen.step()[probe];
    min_level = std::min(min_level, level);
    mean_level += level / steps;
  }
  EXPECT_LT(min_level, 0.25 * mean_level);
}

TEST_F(WorkloadTest, BurstsExceedMeanSignificantly) {
  auto profile = parsec_like_suite()[0];
  profile.burst_rate = 0.05;
  profile.burst_gain = 2.5;
  ActivityGenerator gen(plan_, profile, Rng(17));
  const std::size_t probe = plan_.block_ids_in_core(0)[10];
  double max_level = 0.0, mean_level = 0.0;
  const int steps = 3000;
  for (int s = 0; s < steps; ++s) {
    const double level = gen.step()[probe];
    max_level = std::max(max_level, level);
    mean_level += level / steps;
  }
  EXPECT_GT(max_level, 1.8 * mean_level);
}

TEST_F(WorkloadTest, PowerModelMapsActivityToBlockNodes) {
  PowerModel model(plan_, /*current_scale=*/2.0);
  linalg::Vector activity(plan_.block_count());
  activity[0] = 1.0;  // only block 0 active
  linalg::Vector currents(grid_.node_count());
  model.to_node_currents(activity, currents);

  const auto& block = plan_.block(0);
  const double expected_per_node =
      2.0 / static_cast<double>(block.nodes.size());
  double total = 0.0;
  for (std::size_t node = 0; node < currents.size(); ++node) {
    const bool in_block =
        std::find(block.nodes.begin(), block.nodes.end(), node) !=
        block.nodes.end();
    if (in_block)
      EXPECT_DOUBLE_EQ(currents[node], expected_per_node);
    else
      EXPECT_DOUBLE_EQ(currents[node], 0.0);
    total += currents[node];
  }
  EXPECT_NEAR(total, 2.0, 1e-12);  // charge conservation
}

TEST_F(WorkloadTest, LeakageAppliesToAllFaNodes) {
  PowerModel model(plan_, 1.0, /*leakage_density=*/1e-3);
  linalg::Vector currents(grid_.node_count());
  model.to_node_currents(linalg::Vector(plan_.block_count()), currents);
  for (std::size_t node : plan_.fa_nodes())
    EXPECT_DOUBLE_EQ(currents[node], 1e-3);
  for (std::size_t node : plan_.ba_nodes())
    EXPECT_DOUBLE_EQ(currents[node], 0.0);
}

TEST_F(WorkloadTest, PowerModelRejectsBadInputs) {
  EXPECT_THROW(PowerModel(plan_, 0.0), vmap::ContractError);
  EXPECT_THROW(PowerModel(plan_, 1.0, -1.0), vmap::ContractError);
  PowerModel model(plan_, 1.0);
  linalg::Vector wrong_size(3);
  linalg::Vector out(grid_.node_count());
  EXPECT_THROW(model.to_node_currents(wrong_size, out), vmap::ContractError);
}

// ---- CSV hardening: non-finite and malformed cells must not load ---------

namespace {
/// Writes `body` to a temp CSV, returns the load_csv error message (empty
/// string when the load unexpectedly succeeds).
std::string load_error(const std::string& body) {
  const std::string path = testing::TempDir() + "vmap_workload_bad.csv";
  {
    std::ofstream out(path);
    out << body;
  }
  std::string message;
  try {
    workload::PowerTrace::load_csv(path);
  } catch (const std::exception& e) {
    message = e.what();
  }
  std::remove(path.c_str());
  return message;
}
}  // namespace

TEST(TraceCsv, RejectsNonFiniteCellsWithLineNumbers) {
  // NaN on data line 3 (header is line 1).
  std::string err = load_error("block_0,block_1\n1.0,2.0\nnan,2.0\n");
  EXPECT_NE(err.find("non-finite"), std::string::npos) << err;
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;

  err = load_error("block_0\n0.5\n0.5\ninf\n");
  EXPECT_NE(err.find("non-finite"), std::string::npos) << err;
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;

  err = load_error("block_0\n-inf\n");
  EXPECT_NE(err.find("non-finite"), std::string::npos) << err;
}

TEST(TraceCsv, RejectsGarbageCellsWithLineNumbers) {
  std::string err = load_error("block_0,block_1\nfoo,1.0\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;

  // A number followed by junk must not be silently truncated.
  err = load_error("block_0\n1.0junk\n");
  EXPECT_NE(err.find("trailing garbage"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(TraceCsv, ParseCsvNumberContract) {
  EXPECT_DOUBLE_EQ(parse_csv_number("0.95", 7, "test"), 0.95);
  EXPECT_DOUBLE_EQ(parse_csv_number(" 1e-3 ", 7, "test"), 1e-3);
  EXPECT_THROW(parse_csv_number("nan", 7, "test"), std::runtime_error);
  EXPECT_THROW(parse_csv_number("inf", 7, "test"), std::runtime_error);
  EXPECT_THROW(parse_csv_number("", 7, "test"), std::runtime_error);
  EXPECT_THROW(parse_csv_number("1.0x", 7, "test"), std::runtime_error);
  try {
    parse_csv_number("nan", 7, "test");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 7"), std::string::npos);
  }
}

}  // namespace
}  // namespace vmap::workload
