// Resilience-layer tests: ResilienceReport accounting, crash-safe cache
// recovery, ridge-jittered OLS refits, and group-lasso breakdown
// detection.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/group_lasso.hpp"
#include "core/ols_model.hpp"
#include "grid/power_grid.hpp"
#include "linalg/matrix.hpp"
#include "util/hash.hpp"
#include "util/resilience.hpp"
#include "workload/benchmark_suite.hpp"

namespace vmap {
namespace {

namespace fs = std::filesystem;

double max_abs_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
  return worst;
}

TEST(ResilienceReport, AccountsActionsAndStaysThreadSafe) {
  ResilienceReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.retries(), 0u);

  report.record_condition("qr", 1e6);
  EXPECT_TRUE(report.clean());  // observations alone keep a run clean
  EXPECT_DOUBLE_EQ(report.worst_condition(), 1e6);
  report.record_condition("qr", 42.0);
  EXPECT_DOUBLE_EQ(report.worst_condition(), 1e6);

  report.record("cg", ResilienceAction::kRetry, "shifted IC(0) retry",
                ErrorCode::kNotConverged);
  report.record("cg", ResilienceAction::kFallback, "direct solve",
                ErrorCode::kNumerical);
  report.record("cache", ResilienceAction::kRecollect, "checksum mismatch",
                ErrorCode::kCorruption);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.retries(), 1u);
  EXPECT_EQ(report.fallbacks(), 1u);
  EXPECT_EQ(report.recollects(), 1u);
  ASSERT_EQ(report.events().size(), 5u);

  const std::string summary = report.summary();
  EXPECT_NE(summary.find("1 retries"), std::string::npos);
  EXPECT_NE(summary.find("shifted IC(0) retry"), std::string::npos);
  EXPECT_NE(summary.find("checksum mismatch"), std::string::npos);
  EXPECT_NE(summary.find("corruption"), std::string::npos);

  report.clear();
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.events().empty());
}

/// Shared tiny dataset: collected once, reused by every cache scenario.
class CacheResilienceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    setup_ = new core::ExperimentSetup(core::small_setup());
    setup_->data.warmup_steps = 30;
    setup_->data.train_maps_per_benchmark = 40;
    setup_->data.test_maps_per_benchmark = 15;
    setup_->data.calibration_steps = 80;
    grid_ = new grid::PowerGrid(setup_->grid);
    plan_ = new chip::Floorplan(*grid_, setup_->floorplan);
    suite_ = new std::vector<workload::BenchmarkProfile>(
        workload::parsec_like_suite());
    suite_->resize(2);
    reference_ = new core::Dataset(
        core::DataCollector(*grid_, *plan_, setup_->data).collect(*suite_));
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete suite_;
    delete plan_;
    delete grid_;
    delete setup_;
  }

  void TearDown() override { fs::remove(path_); }

  /// Saved-then-damaged cache must be flagged by try_load and transparently
  /// recollected by load_or_collect, landing on identical data.
  void expect_recovery(const std::function<void(const std::string&)>& damage) {
    reference_->save(path_);
    damage(path_);

    const StatusOr<core::Dataset> direct = core::Dataset::try_load(path_);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.status().code(), ErrorCode::kCorruption);

    ResilienceReport report;
    const core::Dataset recovered = core::load_or_collect(
        path_, *grid_, *plan_, setup_->data, *suite_, &report);
    EXPECT_GE(report.recollects(), 1u);
    EXPECT_FALSE(report.clean());
    // Recollection is deterministic in the seed: bit-identical data.
    EXPECT_EQ(max_abs_diff(recovered.x_train, reference_->x_train), 0.0);
    EXPECT_EQ(max_abs_diff(recovered.f_test, reference_->f_test), 0.0);
  }

  static core::ExperimentSetup* setup_;
  static grid::PowerGrid* grid_;
  static chip::Floorplan* plan_;
  static std::vector<workload::BenchmarkProfile>* suite_;
  static core::Dataset* reference_;
  const std::string path_ = "resilience_test_dataset.cache";
};

core::ExperimentSetup* CacheResilienceTest::setup_ = nullptr;
grid::PowerGrid* CacheResilienceTest::grid_ = nullptr;
chip::Floorplan* CacheResilienceTest::plan_ = nullptr;
std::vector<workload::BenchmarkProfile>* CacheResilienceTest::suite_ = nullptr;
core::Dataset* CacheResilienceTest::reference_ = nullptr;

TEST_F(CacheResilienceTest, HappyPathRoundTripsBitIdentically) {
  reference_->save(path_);
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));  // atomic rename left no temp

  const core::Dataset loaded = core::Dataset::load(path_);
  EXPECT_EQ(max_abs_diff(loaded.x_train, reference_->x_train), 0.0);
  EXPECT_EQ(max_abs_diff(loaded.f_train, reference_->f_train), 0.0);
  EXPECT_EQ(max_abs_diff(loaded.x_test, reference_->x_test), 0.0);
  EXPECT_EQ(max_abs_diff(loaded.f_test, reference_->f_test), 0.0);
  EXPECT_EQ(loaded.candidate_nodes, reference_->candidate_nodes);
  EXPECT_EQ(loaded.critical_block, reference_->critical_block);

  // And the intact cache satisfies load_or_collect without any recovery.
  ResilienceReport report;
  core::load_or_collect(path_, *grid_, *plan_, setup_->data, *suite_,
                        &report);
  EXPECT_TRUE(report.clean());
}

TEST_F(CacheResilienceTest, FlippedByteRecollects) {
  expect_recovery([](const std::string& path) {
    const auto size = fs::file_size(path);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  });
}

TEST_F(CacheResilienceTest, TruncationRecollects) {
  expect_recovery([](const std::string& path) {
    fs::resize_file(path, fs::file_size(path) * 2 / 3);
  });
}

TEST_F(CacheResilienceTest, TrailingGarbageRecollects) {
  expect_recovery([](const std::string& path) {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "extra bytes after the last section";
  });
}

/// Rewrites the x_train section of a v7 cache to a 16-byte payload that
/// holds only the shape rows x cols, with a matching length and checksum:
/// a forgery the FNV-1a section checksum does not catch.
void forge_x_train_shape(const std::string& path, std::uint64_t rows,
                         std::uint64_t cols) {
  constexpr std::uint64_t kXTrainTag = 0xD5E70004ULL;
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Sections follow the magic and version: [tag][bytes][checksum][payload].
  std::size_t at = 2 * sizeof(std::uint64_t);
  std::uint64_t header[3];
  for (;;) {
    ASSERT_LE(at + sizeof(header), image.size()) << "no x_train section";
    std::memcpy(header, image.data() + at, sizeof(header));
    if (header[0] == kXTrainTag) break;
    at += sizeof(header) + header[1];
  }
  const std::uint64_t dims[] = {rows, cols};
  const std::string payload(reinterpret_cast<const char*>(dims),
                            sizeof(dims));
  const std::uint64_t forged[] = {kXTrainTag, payload.size(),
                                  fnv1a64(payload.data(), payload.size())};
  image.replace(at, sizeof(header) + header[1],
                std::string(reinterpret_cast<const char*>(forged),
                            sizeof(forged)) +
                    payload);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
}

TEST_F(CacheResilienceTest, ForgedShapeRecollects) {
  // rows * cols overflowing to 0, a shape that wraps to a 32 GiB
  // allocation, one past the vector size limit, and an empty matrix with
  // the wrong row count: each must read as corruption, never as a
  // storage-less matrix, std::bad_alloc or std::length_error.
  const std::uint64_t shapes[][2] = {{1ULL << 32, 1ULL << 32},
                                     {1ULL << 32, (1ULL << 32) + 1},
                                     {1ULL << 61, 1},
                                     {1ULL << 40, 0}};
  for (const auto& shape : shapes) {
    SCOPED_TRACE("forged x_train shape " + std::to_string(shape[0]) + " x " +
                 std::to_string(shape[1]));
    expect_recovery([&shape](const std::string& path) {
      forge_x_train_shape(path, shape[0], shape[1]);
    });
  }
}

TEST_F(CacheResilienceTest, ForeignFileRecollects) {
  reference_->save(path_);
  {
    std::ofstream f(path_, std::ios::trunc | std::ios::binary);
    f << "this is not a dataset cache";
  }
  const StatusOr<core::Dataset> direct = core::Dataset::try_load(path_);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), ErrorCode::kCorruption);

  ResilienceReport report;
  const core::Dataset recovered = core::load_or_collect(
      path_, *grid_, *plan_, setup_->data, *suite_, &report);
  EXPECT_GE(report.recollects(), 1u);
  EXPECT_EQ(max_abs_diff(recovered.x_train, reference_->x_train), 0.0);
}

TEST_F(CacheResilienceTest, MissingFileIsIoNotCorruption) {
  const StatusOr<core::Dataset> missing =
      core::Dataset::try_load("no_such_file.cache");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kIo);
}

TEST(OlsRidgeFallback, CollinearDesignRecoversWithRidge) {
  // Two identical sensor rows: the QR path must detect rank deficiency and
  // the ridge-jittered normal equations must still produce a finite model.
  const std::size_t n = 8;
  linalg::Matrix x(2, n), f(1, n);
  for (std::size_t s = 0; s < n; ++s) {
    const double v = 0.9 + 0.01 * static_cast<double>(s);
    x(0, s) = v;
    x(1, s) = v;  // exact duplicate
    f(0, s) = 2.0 * v + 0.1;
  }
  ResilienceReport report;
  const core::OlsModel model(x, f, &report);
  EXPECT_TRUE(model.used_ridge_fallback());
  EXPECT_GE(report.fallbacks(), 1u);
  EXPECT_FALSE(report.clean());

  const linalg::Matrix pred = model.predict(x);
  for (std::size_t s = 0; s < n; ++s) {
    ASSERT_TRUE(std::isfinite(pred(0, s)));
    EXPECT_NEAR(pred(0, s), f(0, s), 1e-3);
  }
}

TEST(OlsRidgeFallback, WellConditionedDesignStaysOnQr) {
  const std::size_t n = 8;
  linalg::Matrix x(2, n), f(1, n);
  for (std::size_t s = 0; s < n; ++s) {
    x(0, s) = 0.9 + 0.01 * static_cast<double>(s);
    x(1, s) = 0.8 + 0.02 * static_cast<double>(s % 3);
    f(0, s) = x(0, s) + 0.5 * x(1, s);
  }
  ResilienceReport report;
  const core::OlsModel model(x, f, &report);
  EXPECT_FALSE(model.used_ridge_fallback());
  EXPECT_TRUE(report.clean());  // only a condition observation is recorded
  EXPECT_GT(report.worst_condition(), 0.0);
}

TEST(GroupLassoGuardrails, NonFiniteDataYieldsNumericalStatus) {
  linalg::Matrix z(3, 6), g(2, 6);
  for (std::size_t i = 0; i < z.rows(); ++i)
    for (std::size_t s = 0; s < z.cols(); ++s)
      z(i, s) = static_cast<double>(i + 1) * 0.1 +
                static_cast<double>(s) * 0.01;
  z(1, 2) = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t k = 0; k < g.rows(); ++k)
    for (std::size_t s = 0; s < g.cols(); ++s)
      g(k, s) = static_cast<double>(k) * 0.2 + static_cast<double>(s) * 0.05;

  core::GroupLasso solver(core::GroupLassoProblem::from_data(z, g));
  const core::GroupLassoResult result = solver.solve_penalized(0.5);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), ErrorCode::kNumerical);
  EXPECT_FALSE(result.converged);
}

}  // namespace
}  // namespace vmap
