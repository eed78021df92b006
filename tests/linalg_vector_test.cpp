// Dense vector arithmetic and norm tests.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/vector.hpp"
#include "util/assert.hpp"

namespace vmap::linalg {
namespace {

TEST(Vector, ConstructionAndFill) {
  Vector zero(4);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(zero[i], 0.0);
  Vector filled(3, 2.5);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(filled[i], 2.5);
  Vector list{1.0, 2.0, 3.0};
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 3.0);
}

TEST(Vector, AtChecksBounds) {
  Vector v(2);
  EXPECT_NO_THROW(v.at(1));
  EXPECT_THROW(v.at(2), vmap::ContractError);
}

TEST(Vector, AdditionAndSubtraction) {
  Vector a{1.0, 2.0}, b{10.0, 20.0};
  const Vector sum = a + b;
  EXPECT_EQ(sum[0], 11.0);
  EXPECT_EQ(sum[1], 22.0);
  const Vector diff = b - a;
  EXPECT_EQ(diff[0], 9.0);
  EXPECT_EQ(diff[1], 18.0);
}

TEST(Vector, SizeMismatchThrows) {
  Vector a(2), b(3);
  EXPECT_THROW(a += b, vmap::ContractError);
  EXPECT_THROW(dot(a, b), vmap::ContractError);
}

TEST(Vector, ScalarOps) {
  Vector v{2.0, -4.0};
  v *= 0.5;
  EXPECT_EQ(v[0], 1.0);
  EXPECT_EQ(v[1], -2.0);
  v /= 2.0;
  EXPECT_EQ(v[0], 0.5);
  EXPECT_THROW(v /= 0.0, vmap::ContractError);
}

TEST(Vector, Norms) {
  Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(v.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm2_squared(), 25.0);
  EXPECT_DOUBLE_EQ(v.norm_inf(), 4.0);
}

TEST(Vector, Reductions) {
  Vector v{1.0, 2.0, 3.0, -6.0};
  EXPECT_DOUBLE_EQ(v.sum(), 0.0);
  EXPECT_DOUBLE_EQ(v.mean(), 0.0);
  EXPECT_DOUBLE_EQ(v.min(), -6.0);
  EXPECT_DOUBLE_EQ(v.max(), 3.0);
}

TEST(Vector, EmptyReductionsThrow) {
  Vector v;
  EXPECT_THROW(v.mean(), vmap::ContractError);
  EXPECT_THROW(v.min(), vmap::ContractError);
  EXPECT_THROW(v.max(), vmap::ContractError);
}

TEST(Vector, DotProduct) {
  Vector a{1.0, 2.0, 3.0}, b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Vector, CauchySchwarzHoldsOnRandomData) {
  // Property: |<a,b>| <= ||a|| ||b|| for arbitrary vectors.
  for (int trial = 0; trial < 20; ++trial) {
    Vector a(16), b(16);
    for (std::size_t i = 0; i < 16; ++i) {
      a[i] = std::sin(0.7 * static_cast<double>(i * (trial + 1)));
      b[i] = std::cos(1.3 * static_cast<double>(i + trial));
    }
    EXPECT_LE(std::abs(dot(a, b)), a.norm2() * b.norm2() + 1e-12);
  }
}

TEST(Vector, TriangleInequalityHolds) {
  Vector a{1.0, -2.0, 3.0}, b{-4.0, 5.0, -6.0};
  EXPECT_LE((a + b).norm2(), a.norm2() + b.norm2() + 1e-12);
}

}  // namespace
}  // namespace vmap::linalg
