#pragma once
// Dense vector with value semantics.
//
// The numerical core of vmap is built on two concrete types, Vector and
// Matrix (see matrix.hpp), rather than expression templates: the problem
// sizes here (thousands of rows, hundreds of columns) make kernel clarity
// and cache-friendly loops matter more than avoiding temporaries.

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace vmap::linalg {

/// Dense double-precision vector.
class Vector {
 public:
  Vector() = default;
  /// Zero-initialized vector of the given size.
  explicit Vector(std::size_t n) : data_(n, 0.0) {}
  Vector(std::size_t n, double fill) : data_(n, fill) {}
  Vector(std::initializer_list<double> values) : data_(values) {}
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked access (throws ContractError).
  double& at(std::size_t i);

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  const std::vector<double>& values() const { return data_; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);
  Vector& operator/=(double s);

  /// Euclidean norm.
  double norm2() const;
  /// Squared Euclidean norm.
  double norm2_squared() const;
  /// Max-absolute-value norm.
  double norm_inf() const;
  /// Sum of elements.
  double sum() const;
  /// Arithmetic mean; requires non-empty.
  double mean() const;
  double min() const;
  double max() const;

  void fill(double value);
  void resize(std::size_t n, double fill = 0.0) { data_.resize(n, fill); }

 private:
  std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(Vector v, double s);

/// Dot product; sizes must match.
double dot(const Vector& a, const Vector& b);

}  // namespace vmap::linalg
