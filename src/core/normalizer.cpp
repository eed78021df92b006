#include "core/normalizer.hpp"

#include <algorithm>
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

void Normalizer::normalize_row(const linalg::Matrix& data, std::size_t row,
                               std::size_t var, std::size_t c0,
                               std::size_t c1, double* out) const {
  VMAP_REQUIRE(var < variables(), "variable index out of range");
  VMAP_REQUIRE(c0 <= c1 && c1 <= data.cols(), "column range out of bounds");
  const double* src = row_of(data, row);
  if (degenerate_[var]) {
    std::fill(out, out + (c1 - c0), 0.0);
    return;
  }
  const double mu = mean_[var];
  const double inv_sd = 1.0 / stddev_[var];
  for (std::size_t c = c0; c < c1; ++c) out[c - c0] = (src[c] - mu) * inv_sd;
}

linalg::Matrix Normalizer::normalize(
    const linalg::Matrix& data, const std::vector<std::size_t>& rows) const {
  VMAP_REQUIRE(rows.size() == variables(), "variable count mismatch");
  linalg::Matrix z(rows.size(), data.cols());
  for (std::size_t i = 0; i < rows.size(); ++i)
    normalize_row(data, rows[i], i, 0, data.cols(), z.row_data(i));
  return z;
}

}  // namespace vmap::core
