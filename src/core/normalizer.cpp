#include "core/normalizer.hpp"

#include <cmath>
#include <numeric>

#include "linalg/stats.hpp"
#include "util/assert.hpp"

namespace vmap::core {

namespace {

constexpr double kDegenerateStddev = 1e-12;

std::vector<std::size_t> all_rows(const linalg::Matrix& data) {
  std::vector<std::size_t> rows(data.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

const double* row_of(const linalg::Matrix& data, std::size_t row) {
  VMAP_REQUIRE(row < data.rows(), "row index out of range");
  return data.row_data(row);
}

}  // namespace

Normalizer::Normalizer(const linalg::Matrix& data)
    : Normalizer(data, all_rows(data)) {}

Normalizer::Normalizer(const linalg::Matrix& data,
                       const std::vector<std::size_t>& rows)
    : mean_(rows.size()),
      stddev_(rows.size()),
      degenerate_(rows.size(), false) {
  VMAP_REQUIRE(data.cols() > 1, "Normalizer needs at least two samples");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const linalg::Moments m = linalg::moments(row_of(data, rows[i]),
                                              data.cols());
    mean_[i] = m.mean;
    stddev_[i] = std::sqrt(m.variance);
    if (stddev_[i] < kDegenerateStddev) {
      degenerate_[i] = true;
      stddev_[i] = 1.0;  // keeps transforms well-defined; rows map to 0
    }
  }
}

bool Normalizer::is_degenerate(std::size_t row) const {
  VMAP_REQUIRE(row < degenerate_.size(), "row index out of range");
  return degenerate_[row];
}

linalg::Matrix Normalizer::normalize(const linalg::Matrix& data) const {
  return normalize(data, all_rows(data));
}

linalg::Matrix Normalizer::normalize(
    const linalg::Matrix& data, const std::vector<std::size_t>& rows) const {
  VMAP_REQUIRE(rows.size() == variables(), "variable count mismatch");
  linalg::Matrix z(rows.size(), data.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double* src = row_of(data, rows[i]);
    if (degenerate_[i]) continue;  // stays zero
    const double mu = mean_[i];
    const double inv_sd = 1.0 / stddev_[i];
    double* dst = z.row_data(i);
    for (std::size_t c = 0; c < data.cols(); ++c)
      dst[c] = (src[c] - mu) * inv_sd;
  }
  return z;
}

linalg::Vector Normalizer::normalize(const linalg::Vector& sample) const {
  VMAP_REQUIRE(sample.size() == variables(), "variable count mismatch");
  linalg::Vector z(sample.size());
  for (std::size_t r = 0; r < sample.size(); ++r) {
    if (degenerate_[r]) continue;
    z[r] = (sample[r] - mean_[r]) / stddev_[r];
  }
  return z;
}

linalg::Matrix Normalizer::denormalize(const linalg::Matrix& data) const {
  VMAP_REQUIRE(data.rows() == variables(), "variable count mismatch");
  linalg::Matrix x(data.rows(), data.cols());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const double mu = mean_[r];
    const double sd = degenerate_[r] ? 0.0 : stddev_[r];
    const double* src = data.row_data(r);
    double* dst = x.row_data(r);
    for (std::size_t c = 0; c < data.cols(); ++c)
      dst[c] = src[c] * sd + mu;
  }
  return x;
}

linalg::Vector Normalizer::denormalize(const linalg::Vector& sample) const {
  VMAP_REQUIRE(sample.size() == variables(), "variable count mismatch");
  linalg::Vector x(sample.size());
  for (std::size_t r = 0; r < sample.size(); ++r) {
    const double sd = degenerate_[r] ? 0.0 : stddev_[r];
    x[r] = sample[r] * sd + mean_[r];
  }
  return x;
}

}  // namespace vmap::core
