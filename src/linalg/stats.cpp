#include "linalg/stats.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace vmap::linalg {

namespace {

/// One accumulator over the samples in ascending order, then one divide.
double mean_of(const double* samples, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += samples[i];
  return acc / static_cast<double>(n);
}

}  // namespace

Moments moments(const double* samples, std::size_t n) {
  VMAP_REQUIRE(n > 1, "moments needs at least two samples");
  Moments m;
  m.mean = mean_of(samples, n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = samples[i] - m.mean;
    acc += d * d;
  }
  m.variance = acc / static_cast<double>(n - 1);
  return m;
}

Moments moments(const Vector& sample) {
  return moments(sample.data(), sample.size());
}

Vector row_means(const Matrix& data) {
  VMAP_REQUIRE(data.cols() > 0, "row_means needs at least one sample");
  Vector mu(data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r)
    mu[r] = mean_of(data.row_data(r), data.cols());
  return mu;
}

Matrix covariance(const Matrix& data) {
  VMAP_REQUIRE(data.cols() > 1, "covariance needs at least two samples");
  const std::size_t p = data.rows();
  const std::size_t n = data.cols();
  Vector mu = row_means(data);
  // Center once, then form (1/(n-1)) D D^T.
  Matrix centered(p, n);
  for (std::size_t r = 0; r < p; ++r) {
    const double* src = data.row_data(r);
    double* dst = centered.row_data(r);
    for (std::size_t c = 0; c < n; ++c) dst[c] = src[c] - mu[r];
  }
  Matrix cov = matmul_a_at(centered);
  cov *= 1.0 / static_cast<double>(n - 1);
  return cov;
}

Matrix correlation(const Matrix& data) {
  Matrix cov = covariance(data);
  const std::size_t p = cov.rows();
  Vector sd(p);
  for (std::size_t i = 0; i < p; ++i) sd[i] = std::sqrt(cov(i, i));
  Matrix corr(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      const double denom = sd[i] * sd[j];
      corr(i, j) = denom > 0.0 ? cov(i, j) / denom : 0.0;
    }
    if (sd[i] > 0.0) corr(i, i) = 1.0;
  }
  return corr;
}

double pearson(const Vector& a, const Vector& b) {
  VMAP_REQUIRE(a.size() == b.size() && a.size() > 1,
               "pearson needs two equal-length samples of size >= 2");
  const double ma = a.mean();
  const double mb = b.mean();
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  const double denom = std::sqrt(saa * sbb);
  return denom > 0.0 ? sab / denom : 0.0;
}

}  // namespace vmap::linalg
