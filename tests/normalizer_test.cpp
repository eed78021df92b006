// Normalizer tests: z-score invariants, degenerate rows, and
// the in-place row-subset path against the copy it replaces.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/normalizer.hpp"
#include "linalg/stats.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vmap::core {
namespace {

linalg::Matrix random_data(std::size_t rows, std::size_t cols,
                           vmap::Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const double mu = rng.uniform(-5.0, 5.0);
    const double sd = rng.uniform(0.1, 3.0);
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal(mu, sd);
  }
  return m;
}

TEST(Normalizer, NormalizedDataHasZeroMeanUnitVariance) {
  vmap::Rng rng(1);
  const auto data = random_data(5, 400, rng);
  const Normalizer norm(data);
  const auto z = norm.normalize(data);
  for (std::size_t r = 0; r < 5; ++r) {
    const linalg::Moments m = linalg::moments(z.row_data(r), z.cols());
    EXPECT_NEAR(m.mean, 0.0, 1e-10);
    EXPECT_NEAR(std::sqrt(m.variance), 1.0, 1e-10);
  }
}

TEST(Normalizer, DegenerateRowMapsToZero) {
  linalg::Matrix data(2, 10);
  for (std::size_t c = 0; c < 10; ++c) {
    data(0, c) = 7.5;                         // constant row
    data(1, c) = static_cast<double>(c);
  }
  const Normalizer norm(data);
  EXPECT_TRUE(norm.is_degenerate(0));
  EXPECT_FALSE(norm.is_degenerate(1));
  const auto z = norm.normalize(data);
  for (std::size_t c = 0; c < 10; ++c) EXPECT_DOUBLE_EQ(z(0, c), 0.0);
}

TEST(Normalizer, NoNansFromDegenerateRows) {
  linalg::Matrix data(1, 5);
  data.fill(3.0);
  const Normalizer norm(data);
  const auto z = norm.normalize(data);
  for (std::size_t c = 0; c < 5; ++c) EXPECT_FALSE(std::isnan(z(0, c)));
}

TEST(Normalizer, NewSamplesUseTrainingStatistics) {
  linalg::Matrix train(1, 4);
  train(0, 0) = 0.0;
  train(0, 1) = 2.0;
  train(0, 2) = 4.0;
  train(0, 3) = 6.0;  // mean 3, sd sqrt(20/3)
  const Normalizer norm(train);
  linalg::Matrix samples(1, 2);
  samples(0, 0) = 3.0;
  samples(0, 1) = 6.0;
  const linalg::Matrix z = norm.normalize(samples);
  EXPECT_NEAR(z(0, 0), 0.0, 1e-12);
  EXPECT_GT(z(0, 1), 0.0);
}

TEST(Normalizer, ShapeMismatchThrows) {
  vmap::Rng rng(4);
  const auto data = random_data(3, 20, rng);
  const Normalizer norm(data);
  EXPECT_THROW(norm.normalize(linalg::Matrix(4, 20)), vmap::ContractError);
}

TEST(Normalizer, RequiresTwoSamples) {
  EXPECT_THROW(Normalizer(linalg::Matrix(3, 1)), vmap::ContractError);
}

bool same_bytes(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Learning from and normalizing rows `rows` of `data` in place must give
/// the bytes that select_rows + Normalizer(x) + normalize(x) give, and the
/// bytes of the two-pass formula.
void expect_in_place_matches_copy(const linalg::Matrix& data,
                                  const std::vector<std::size_t>& rows) {
  const linalg::Matrix x = data.select_rows(rows);
  const Normalizer from_copy(x);
  const Normalizer in_place(data, rows);
  ASSERT_EQ(in_place.variables(), rows.size());
  EXPECT_TRUE(same_bytes(in_place.means().data(), from_copy.means().data(),
                         rows.size()));
  EXPECT_TRUE(same_bytes(in_place.stddevs().data(),
                         from_copy.stddevs().data(), rows.size()));
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(in_place.is_degenerate(i), from_copy.is_degenerate(i))
        << "variable " << i;
  const linalg::Matrix z_copy = from_copy.normalize(x);
  const linalg::Matrix z = in_place.normalize(data, rows);
  ASSERT_EQ(z.rows(), z_copy.rows());
  ASSERT_EQ(z.cols(), z_copy.cols());
  EXPECT_TRUE(same_bytes(z.data(), z_copy.data(), z.rows() * z.cols()));

  // Both paths keep the chains written out here: one accumulator with the
  // samples ascending for the mean, a second pass for the variance, then
  // (x - mean) * (1 / stddev).
  const std::size_t n = data.cols();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double* row = data.row_data(rows[i]);
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) sum += row[c];
    const double mu = sum / static_cast<double>(n);
    double ss = 0.0;
    for (std::size_t c = 0; c < n; ++c) ss += (row[c] - mu) * (row[c] - mu);
    const double sd = std::sqrt(ss / static_cast<double>(n - 1));
    EXPECT_EQ(in_place.means()[i], mu) << "variable " << i;
    if (in_place.is_degenerate(i)) continue;
    EXPECT_EQ(in_place.stddevs()[i], sd) << "variable " << i;
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_EQ(z(i, c), (row[c] - mu) * (1.0 / sd)) << i << ", " << c;
  }
}

TEST(Normalizer, RowSubsetInPlaceIsByteIdenticalToCopy) {
  vmap::Rng rng(5);
  linalg::Matrix data = random_data(7, 53, rng);
  for (std::size_t c = 0; c < data.cols(); ++c) data(3, c) = -2.25;
  const std::vector<std::vector<std::size_t>> cases = {
      {5, 0, 6, 2},           // unsorted
      {4, 1, 4},              // a repeated row
      {3, 6},                 // a constant (degenerate) row
      {2},                    // a single row
      {0, 1, 2, 3, 4, 5, 6},  // all rows
  };
  for (const auto& rows : cases) {
    SCOPED_TRACE(::testing::PrintToString(rows));
    expect_in_place_matches_copy(data, rows);
  }
  EXPECT_TRUE(Normalizer(data, {3, 6}).is_degenerate(0));
}

TEST(Normalizer, RowSubsetRejectsBadRowsAndTooFewSamples) {
  vmap::Rng rng(6);
  const linalg::Matrix data = random_data(3, 20, rng);
  EXPECT_THROW(Normalizer(data, {0, 3}), vmap::ContractError);
  const Normalizer norm(data, {0, 2});
  EXPECT_THROW(norm.normalize(data, {0, 3}), vmap::ContractError);
  EXPECT_THROW(norm.normalize(data, {0}), vmap::ContractError);
  EXPECT_THROW(Normalizer(linalg::Matrix(3, 1), {0, 1}),
               vmap::ContractError);
}

}  // namespace
}  // namespace vmap::core
