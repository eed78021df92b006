// Sparse layer tests: CSR assembly semantics, SpMV, RCM ordering, and
// skyline Cholesky vs dense reference (and its multi-lane solves vs
// one-lane solves).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "sparse/csr.hpp"
#include "sparse/ordering.hpp"
#include "sparse/skyline_cholesky.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vmap::sparse {
namespace {

/// Random sparse SPD matrix: a 1D resistive chain plus diagonal boost.
CsrMatrix chain_spd(std::size_t n, double diag_boost = 1.0) {
  TripletBuilder b(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add(i, i, 1.0);
    b.add(i + 1, i + 1, 1.0);
    b.add(i, i + 1, -1.0);
    b.add(i + 1, i, -1.0);
  }
  for (std::size_t i = 0; i < n; ++i) b.add(i, i, diag_boost);
  return b.build();
}

/// 2D mesh Laplacian + diagonal boost (like the power grid's G).
CsrMatrix mesh_spd(std::size_t nx, std::size_t ny, double diag_boost = 0.5) {
  const std::size_t n = nx * ny;
  TripletBuilder b(n, n);
  auto id = [nx](std::size_t x, std::size_t y) { return y * nx + x; };
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) {
      if (x + 1 < nx) {
        b.add(id(x, y), id(x, y), 1.0);
        b.add(id(x + 1, y), id(x + 1, y), 1.0);
        b.add(id(x, y), id(x + 1, y), -1.0);
        b.add(id(x + 1, y), id(x, y), -1.0);
      }
      if (y + 1 < ny) {
        b.add(id(x, y), id(x, y), 1.0);
        b.add(id(x, y + 1), id(x, y + 1), 1.0);
        b.add(id(x, y), id(x, y + 1), -1.0);
        b.add(id(x, y + 1), id(x, y), -1.0);
      }
      b.add(id(x, y), id(x, y), diag_boost);
    }
  }
  return b.build();
}

TEST(TripletBuilder, SumsDuplicates) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 0, -1.0);
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(TripletBuilder, DropTolRemovesCancellations) {
  TripletBuilder b(1, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, -1.0);
  b.add(0, 1, 2.0);
  const CsrMatrix with_zero = b.build(0.0);
  EXPECT_EQ(with_zero.nnz(), 2u);  // exact zero kept with tol 0
  const CsrMatrix dropped = b.build(1e-12);
  EXPECT_EQ(dropped.nnz(), 1u);
}

TEST(TripletBuilder, RejectsOutOfRange) {
  TripletBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), vmap::ContractError);
}

TEST(Csr, SpmvMatchesDense) {
  const CsrMatrix m = mesh_spd(4, 3);
  const linalg::Matrix dense = m.to_dense();
  vmap::Rng rng(1);
  linalg::Vector x(m.cols());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  const linalg::Vector y_sparse = m.multiply(x);
  const linalg::Vector y_dense = linalg::matvec(dense, x);
  for (std::size_t i = 0; i < y_sparse.size(); ++i)
    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-12);
}

TEST(Csr, DiagonalAndSymmetry) {
  const CsrMatrix m = chain_spd(5);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);   // one neighbour + boost
  EXPECT_DOUBLE_EQ(m.at(2, 2), 3.0);   // two neighbours + boost
  EXPECT_TRUE(m.is_symmetric());
}

TEST(Csr, AsymmetryDetected) {
  TripletBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  EXPECT_FALSE(b.build().is_symmetric());
}

TEST(Ordering, RcmIsAPermutation) {
  const CsrMatrix m = mesh_spd(6, 5);
  const auto perm = reverse_cuthill_mckee(m);
  ASSERT_EQ(perm.size(), m.rows());
  std::vector<bool> seen(perm.size(), false);
  for (std::size_t p : perm) {
    ASSERT_LT(p, perm.size());
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(Ordering, RcmReducesMeshBandwidth) {
  // A long thin mesh ordered row-major has bandwidth = nx; RCM should do
  // at least as well as the short dimension allows.
  const std::size_t nx = 30, ny = 3;
  const CsrMatrix m = mesh_spd(nx, ny);
  const auto natural = identity_permutation(m.rows());
  const auto rcm = reverse_cuthill_mckee(m);
  EXPECT_LE(bandwidth(m, rcm), bandwidth(m, natural));
  EXPECT_LE(bandwidth(m, rcm), 2 * ny + 2);
}

TEST(Ordering, InvertPermutationRoundTrips) {
  std::vector<std::size_t> p{2, 0, 3, 1};
  const auto inv = invert_permutation(p);
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(inv[p[i]], i);
}

TEST(Ordering, HandlesDisconnectedGraph) {
  TripletBuilder b(4, 4);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  b.add(2, 2, 1.0);
  b.add(3, 3, 1.0);
  b.add(2, 3, -0.5);
  b.add(3, 2, -0.5);
  const auto perm = reverse_cuthill_mckee(b.build());
  EXPECT_EQ(perm.size(), 4u);
}

class SkylineSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SkylineSizes, MatchesDenseCholeskyOnMesh) {
  const std::size_t n = GetParam();
  const CsrMatrix m = mesh_spd(n, n);
  const linalg::Matrix dense = m.to_dense();
  vmap::Rng rng(7 + n);
  linalg::Vector b(m.rows());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();

  const SkylineCholesky sky(m);
  const linalg::Vector x_sky = sky.solve(b);
  const linalg::Vector x_dense = linalg::Cholesky(dense).solve(b);
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_NEAR(x_sky[i], x_dense[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, SkylineSizes,
                         ::testing::Values(2, 3, 5, 8, 12));

TEST(Skyline, WorksWithoutRcm) {
  const CsrMatrix m = mesh_spd(6, 6);
  vmap::Rng rng(11);
  linalg::Vector b(m.rows());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();
  const linalg::Vector x1 = SkylineCholesky(m, /*use_rcm=*/true).solve(b);
  const linalg::Vector x2 = SkylineCholesky(m, /*use_rcm=*/false).solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);
}

TEST(Skyline, ResidualIsTiny) {
  const CsrMatrix m = mesh_spd(10, 10);
  vmap::Rng rng(13);
  linalg::Vector b(m.rows());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();
  const linalg::Vector x = SkylineCholesky(m).solve(b);
  linalg::Vector r = m.multiply(x);
  r -= b;
  EXPECT_LT(r.norm2() / b.norm2(), 1e-10);
}

TEST(Skyline, LaneSolvesAreBitIdenticalToOneLaneSolves) {
  // Every lane of a multi-lane solve must equal solve() of that column
  // byte for byte, for lane counts covering one lane, padding to the panel
  // width (2, 3, 5-7, 9) and whole 4- and 8-lane panels, on both SIMD
  // dispatch paths.
  const linalg::kern::SimdLevel level_was = linalg::kern::simd_level();
  const SkylineCholesky sky(mesh_spd(11, 9));
  const std::size_t n = sky.dim();
  for (bool simd : {false, true}) {
    linalg::kern::set_simd_level(simd ? linalg::kern::SimdLevel::kAvx2
                                      : linalg::kern::SimdLevel::kScalar);
    for (std::size_t lanes = 1; lanes <= 9; ++lanes) {
      vmap::Rng rng(100 + lanes);
      std::vector<linalg::Vector> columns(lanes, linalg::Vector(n));
      std::vector<double> b(n * lanes);
      for (std::size_t c = 0; c < lanes; ++c)
        for (std::size_t i = 0; i < n; ++i)
          b[i * lanes + c] = columns[c][i] = rng.normal();
      std::vector<double> x(n * lanes, -1.0);
      sky.solve_lanes(lanes, b.data(), x.data());
      for (std::size_t c = 0; c < lanes; ++c) {
        const linalg::Vector want = sky.solve(columns[c]);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(std::memcmp(&x[i * lanes + c], want.data() + i,
                                sizeof(double)),
                    0)
              << "lanes=" << lanes << " lane " << c << " row " << i
              << " simd=" << simd;
      }
    }
  }
  linalg::kern::set_simd_level(level_was);
}

TEST(Skyline, LaneSolveMayRunInPlace) {
  const SkylineCholesky sky(mesh_spd(5, 4));
  vmap::Rng rng(17);
  std::vector<double> b(sky.dim() * 3);
  for (double& v : b) v = rng.normal();
  std::vector<double> x(b.size());
  sky.solve_lanes(3, b.data(), x.data());
  sky.solve_lanes(3, b.data(), b.data());
  EXPECT_EQ(std::memcmp(b.data(), x.data(), b.size() * sizeof(double)), 0);
}

TEST(Skyline, RejectsIndefinite) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 2.0);
  EXPECT_THROW(SkylineCholesky(b.build()), vmap::ContractError);
}

}  // namespace
}  // namespace vmap::sparse
