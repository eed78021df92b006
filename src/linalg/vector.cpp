#include "linalg/vector.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "util/assert.hpp"

namespace vmap::linalg {

double& Vector::at(std::size_t i) {
  VMAP_REQUIRE(i < data_.size(), "vector index out of range");
  return data_[i];
}

Vector& Vector::operator+=(const Vector& rhs) {
  VMAP_REQUIRE(size() == rhs.size(), "vector size mismatch in +=");
  kern::add(data_.size(), rhs.data_.data(), data_.data());
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  VMAP_REQUIRE(size() == rhs.size(), "vector size mismatch in -=");
  kern::sub(data_.size(), rhs.data_.data(), data_.data());
  return *this;
}

Vector& Vector::operator*=(double s) {
  kern::scale(data_.size(), s, data_.data());
  return *this;
}

Vector& Vector::operator/=(double s) {
  VMAP_REQUIRE(s != 0.0, "division by zero scalar");
  for (double& v : data_) v /= s;
  return *this;
}

double Vector::norm2() const { return std::sqrt(norm2_squared()); }

double Vector::norm2_squared() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return acc;
}

double Vector::norm_inf() const {
  double acc = 0.0;
  for (double v : data_) acc = std::max(acc, std::abs(v));
  return acc;
}

double Vector::sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

double Vector::mean() const {
  VMAP_REQUIRE(!data_.empty(), "mean of empty vector");
  return sum() / static_cast<double>(data_.size());
}

double Vector::min() const {
  VMAP_REQUIRE(!data_.empty(), "min of empty vector");
  return *std::min_element(data_.begin(), data_.end());
}

double Vector::max() const {
  VMAP_REQUIRE(!data_.empty(), "max of empty vector");
  return *std::max_element(data_.begin(), data_.end());
}

void Vector::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Vector operator+(Vector lhs, const Vector& rhs) {
  lhs += rhs;
  return lhs;
}

Vector operator-(Vector lhs, const Vector& rhs) {
  lhs -= rhs;
  return lhs;
}

Vector operator*(Vector v, double s) {
  v *= s;
  return v;
}

// dot and norm2_squared above keep the sequential left-to-right
// accumulation on purpose: it is the canonical reduction order every
// solver scalar (and therefore every byte-gated baseline) was produced
// with. kern::dot uses a different (4-lane strided) order and must not be
// swapped in here.
double dot(const Vector& a, const Vector& b) {
  VMAP_REQUIRE(a.size() == b.size(), "vector size mismatch in dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace vmap::linalg
