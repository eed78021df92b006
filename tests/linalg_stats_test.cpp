// Statistics helpers: means, deviations, covariance/correlation identities.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/stats.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vmap::linalg {
namespace {

TEST(Stats, RowMeansHandComputed) {
  Matrix data{{1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}};
  const Vector mu = row_means(data);
  EXPECT_DOUBLE_EQ(mu[0], 2.0);
  EXPECT_DOUBLE_EQ(mu[1], 20.0);
}

TEST(Stats, CovarianceDiagonalIsVariance) {
  vmap::Rng rng(1);
  Matrix data(3, 500);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 500; ++c)
      data(r, c) = rng.normal(0.0, static_cast<double>(r + 1));
  const Matrix cov = covariance(data);
  for (std::size_t r = 0; r < 3; ++r)
    EXPECT_NEAR(cov(r, r), moments(data.row_data(r), 500).variance, 1e-9);
}

TEST(Stats, CovarianceIsSymmetric) {
  vmap::Rng rng(2);
  Matrix data(4, 100);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 100; ++c) data(r, c) = rng.normal();
  const Matrix cov = covariance(data);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(cov(i, j), cov(j, i), 1e-12);
}

TEST(Stats, CorrelationOfPerfectlyDependentRowsIsOne) {
  Matrix data(2, 50);
  for (std::size_t c = 0; c < 50; ++c) {
    data(0, c) = static_cast<double>(c);
    data(1, c) = 3.0 * static_cast<double>(c) + 7.0;
  }
  const Matrix corr = correlation(data);
  EXPECT_NEAR(corr(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(corr(1, 0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(corr(0, 0), 1.0);
}

TEST(Stats, AntiCorrelatedRowsGiveMinusOne) {
  Matrix data(2, 10);
  for (std::size_t c = 0; c < 10; ++c) {
    data(0, c) = static_cast<double>(c);
    data(1, c) = -2.0 * static_cast<double>(c);
  }
  const Matrix corr = correlation(data);
  EXPECT_NEAR(corr(0, 1), -1.0, 1e-12);
}

TEST(Stats, ConstantRowYieldsZeroCorrelationNotNan) {
  Matrix data(2, 20);
  for (std::size_t c = 0; c < 20; ++c) {
    data(0, c) = 5.0;  // constant
    data(1, c) = static_cast<double>(c);
  }
  const Matrix corr = correlation(data);
  EXPECT_DOUBLE_EQ(corr(0, 1), 0.0);
  EXPECT_FALSE(std::isnan(corr(0, 0)));
}

TEST(Stats, CorrelationBoundedByOne) {
  vmap::Rng rng(3);
  Matrix data(5, 64);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 64; ++c) data(r, c) = rng.normal();
  const Matrix corr = correlation(data);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_LE(std::abs(corr(i, j)), 1.0 + 1e-12);
}

TEST(Stats, PearsonMatchesCorrelationMatrix) {
  vmap::Rng rng(4);
  Matrix data(2, 80);
  for (std::size_t c = 0; c < 80; ++c) {
    data(0, c) = rng.normal();
    data(1, c) = 0.5 * data(0, c) + rng.normal();
  }
  const Matrix corr = correlation(data);
  const double p = pearson(data.row(0), data.row(1));
  EXPECT_NEAR(p, corr(0, 1), 1e-12);
}

TEST(Stats, PearsonZeroVarianceIsZero) {
  Vector a(10, 1.0), b(10);
  for (std::size_t i = 0; i < 10; ++i) b[i] = static_cast<double>(i);
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
}

TEST(Stats, MomentsMatchKnownSample) {
  Vector sample{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Moments m = moments(sample);
  EXPECT_DOUBLE_EQ(m.mean, 5.0);
  EXPECT_NEAR(m.variance, 32.0 / 7.0, 1e-12);  // unbiased
}

TEST(Stats, GuardsAgainstTooFewSamples) {
  Matrix one_col(2, 1);
  EXPECT_THROW(covariance(one_col), vmap::ContractError);
  EXPECT_THROW(moments(Vector{1.0}), vmap::ContractError);
}

}  // namespace
}  // namespace vmap::linalg
