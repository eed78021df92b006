// Tests for the analysis layer: symmetric eigendecomposition, trace
// capture/CSV, and PCA leverage placement.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "chip/floorplan.hpp"
#include "core/experiment.hpp"
#include "grid/power_grid.hpp"
#include "linalg/eigen.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "workload/benchmark_suite.hpp"
#include "workload/trace_io.hpp"

namespace vmap {
namespace {

linalg::Matrix random_symmetric(std::size_t n, Rng& rng) {
  linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

TEST(Eigen, KnownTwoByTwo) {
  linalg::Matrix a{{2.0, 1.0}, {1.0, 2.0}};  // eigenvalues 1 and 3
  const auto eig = linalg::symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
}

TEST(Eigen, DiagonalMatrixIsItsOwnDecomposition) {
  linalg::Matrix a(3, 3);
  a(0, 0) = 5.0;
  a(1, 1) = -2.0;
  a(2, 2) = 1.0;
  const auto eig = linalg::symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], -2.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 5.0, 1e-12);
}

class EigenSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSizes, ReconstructsInput) {
  Rng rng(50 + GetParam());
  const std::size_t n = GetParam();
  const auto a = random_symmetric(n, rng);
  const auto eig = linalg::symmetric_eigen(a);
  // A = V diag(w) Vᵀ.
  linalg::Matrix reconstructed(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        acc += eig.vectors(i, k) * eig.values[k] * eig.vectors(j, k);
      reconstructed(i, j) = acc;
    }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(reconstructed(i, j), a(i, j), 1e-9 * (1.0 + a.norm_max()));
}

TEST_P(EigenSizes, VectorsAreOrthonormal) {
  Rng rng(150 + GetParam());
  const auto a = random_symmetric(GetParam(), rng);
  const auto eig = linalg::symmetric_eigen(a);
  const auto vtv = linalg::matmul_at_b(eig.vectors, eig.vectors);
  for (std::size_t i = 0; i < vtv.rows(); ++i)
    for (std::size_t j = 0; j < vtv.cols(); ++j)
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-10);
}

TEST_P(EigenSizes, ValuesAscendAndTraceMatches) {
  Rng rng(250 + GetParam());
  const auto a = random_symmetric(GetParam(), rng);
  const auto eig = linalg::symmetric_eigen(a);
  double trace_a = 0.0, sum_w = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) trace_a += a(i, i);
  for (std::size_t i = 0; i < eig.values.size(); ++i) {
    sum_w += eig.values[i];
    if (i) {
      EXPECT_GE(eig.values[i], eig.values[i - 1] - 1e-12);
    }
  }
  EXPECT_NEAR(sum_w, trace_a, 1e-9 * (1.0 + std::abs(trace_a)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40));

TEST(Eigen, SpdMatrixHasPositiveEigenvalues) {
  Rng rng(7);
  const auto b = random_symmetric(6, rng);
  const auto a = linalg::matmul_a_bt(b, b);  // PSD
  const auto eig = linalg::symmetric_eigen(a);
  for (std::size_t i = 0; i < eig.values.size(); ++i)
    EXPECT_GE(eig.values[i], -1e-9);
}

TEST(Eigen, RejectsNonSquare) {
  EXPECT_THROW(linalg::symmetric_eigen(linalg::Matrix(2, 3)),
               vmap::ContractError);
}

TEST(Eigen, TopEigenpairsAgreeWithJacobi) {
  Rng rng(31);
  const auto b = random_symmetric(30, rng);
  const auto a = linalg::matmul_a_bt(b, b);  // PSD, distinct spectrum
  const auto full = linalg::symmetric_eigen(a);
  const std::size_t p = 5;
  const auto top = linalg::top_symmetric_eigen(a, p, 1e-10, 1000);
  ASSERT_EQ(top.values.size(), p);
  for (std::size_t j = 0; j < p; ++j) {
    // Jacobi returns ascending, top returns descending.
    EXPECT_NEAR(top.values[j], full.values[30 - 1 - j],
                1e-6 * (1.0 + std::abs(full.values[29])));
    // Eigenvector agreement up to sign: |<v_top, v_full>| = 1.
    double dot = 0.0;
    for (std::size_t i = 0; i < 30; ++i)
      dot += top.vectors(i, j) * full.vectors(i, 30 - 1 - j);
    EXPECT_NEAR(std::abs(dot), 1.0, 1e-5);
  }
}

TEST(Eigen, TopEigenvectorsAreOrthonormal) {
  Rng rng(37);
  const auto b = random_symmetric(25, rng);
  const auto a = linalg::matmul_a_bt(b, b);
  const auto top = linalg::top_symmetric_eigen(a, 4);
  const auto vtv = linalg::matmul_at_b(top.vectors, top.vectors);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-8);
}

class TraceTest : public ::testing::Test {
 protected:
  TraceTest()
      : setup_(core::small_setup()),
        grid_(setup_.grid),
        plan_(grid_, setup_.floorplan) {}
  core::ExperimentSetup setup_;
  grid::PowerGrid grid_;
  chip::Floorplan plan_;
};

TEST_F(TraceTest, CaptureMatchesGeneratorOutput) {
  const auto suite = workload::parsec_like_suite();
  workload::ActivityGenerator gen_a(plan_, suite[0], Rng(5));
  workload::ActivityGenerator gen_b(plan_, suite[0], Rng(5));
  const auto trace = workload::PowerTrace::capture(gen_a, 20);
  ASSERT_EQ(trace.steps(), 20u);
  ASSERT_EQ(trace.blocks(), plan_.block_count());
  for (std::size_t s = 0; s < 20; ++s) {
    const auto& expected = gen_b.step();
    for (std::size_t b = 0; b < trace.blocks(); ++b)
      EXPECT_DOUBLE_EQ(trace.at(s, b), expected[b]);
  }
}

TEST_F(TraceTest, CsvRoundTrips) {
  const auto suite = workload::parsec_like_suite();
  workload::ActivityGenerator gen(plan_, suite[1], Rng(9));
  const auto trace = workload::PowerTrace::capture(gen, 15);
  const std::string path = testing::TempDir() + "vmap_trace_test.csv";
  trace.save_csv(path);
  const auto loaded = workload::PowerTrace::load_csv(path);
  ASSERT_EQ(loaded.steps(), trace.steps());
  ASSERT_EQ(loaded.blocks(), trace.blocks());
  for (std::size_t s = 0; s < trace.steps(); ++s)
    for (std::size_t b = 0; b < trace.blocks(); ++b)
      EXPECT_NEAR(loaded.at(s, b), trace.at(s, b), 1e-9);
  std::remove(path.c_str());
}

TEST_F(TraceTest, FailedSaveKeepsThePreviousTrace) {
  // save_csv writes atomically: when the write fails (its temporary name is
  // taken by a directory), the trace already under the real name stays
  // whole and loadable.
  const auto suite = workload::parsec_like_suite();
  workload::ActivityGenerator gen(plan_, suite[2], Rng(11));
  const auto first = workload::PowerTrace::capture(gen, 6);
  const auto second = workload::PowerTrace::capture(gen, 9);
  const std::string path = testing::TempDir() + "vmap_trace_atomic.csv";
  std::filesystem::remove(path + ".tmp");  // a previous run's, if any
  first.save_csv(path);
  std::filesystem::create_directory(path + ".tmp");
  EXPECT_THROW(second.save_csv(path), std::runtime_error);
  std::filesystem::remove(path + ".tmp");
  const auto loaded = workload::PowerTrace::load_csv(path);
  ASSERT_EQ(loaded.steps(), first.steps());
  for (std::size_t s = 0; s < first.steps(); ++s)
    for (std::size_t b = 0; b < first.blocks(); ++b)
      EXPECT_EQ(loaded.at(s, b), first.at(s, b));
  std::remove(path.c_str());
}

TEST_F(TraceTest, LoadRejectsMalformedCsv) {
  const std::string path = testing::TempDir() + "vmap_trace_bad.csv";
  {
    std::ofstream out(path);
    out << "block_0,block_1\n1.0,2.0\n3.0\n";  // short row
  }
  EXPECT_THROW(workload::PowerTrace::load_csv(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "block_0\nnot_a_number\n";
  }
  EXPECT_THROW(workload::PowerTrace::load_csv(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "block_0\n-1.0\n";  // negative activity
  }
  EXPECT_THROW(workload::PowerTrace::load_csv(path), vmap::ContractError);
  std::remove(path.c_str());
}

TEST(Trace, EmptyTraceRejected) {
  workload::PowerTrace empty(3);
  EXPECT_THROW(empty.at(0, 0), vmap::ContractError);
}

}  // namespace
}  // namespace vmap
