// Thread-pool semantics (coverage, nesting, clamping, exceptions) and the
// bit-identical-to-serial guarantee of parallel dataset collection and
// parallel per-core placement fits.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "grid/power_grid.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "sparse/csr.hpp"
#include "sparse/skyline_cholesky.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/benchmark_suite.hpp"

namespace vmap {
namespace {

/// Restores the automatic thread-count default when a test ends.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  ThreadCountGuard guard;
  set_thread_count(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, RespectsBeginOffset) {
  ThreadCountGuard guard;
  set_thread_count(3);
  std::vector<std::atomic<int>> hits(10);
  parallel_for(4, 10, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(hits[i].load(), i >= 4 ? 1 : 0);
}

TEST(ParallelFor, SerialAtOneThreadRunsInOrderOnCaller) {
  ThreadCountGuard guard;
  set_thread_count(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(0, 16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NestedCallRunsInlineWithoutDeadlock) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::atomic<int> inner_total{0};
  parallel_for(0, 8, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    const auto outer_thread = std::this_thread::get_id();
    // The nested loop must run inline on the same worker.
    parallel_for(0, 4, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 32);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelFor, ConcurrencyClampedToOutstandingTasks) {
  ThreadCountGuard guard;
  set_thread_count(8);
  std::atomic<int> active{0};
  std::atomic<int> high_water{0};
  parallel_for(0, 2, [&](std::size_t) {
    const int now = active.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    active.fetch_sub(1);
  });
  EXPECT_LE(high_water.load(), 2);
}

TEST(ParallelFor, OversubscribedPoolStillCompletes) {
  ThreadCountGuard guard;
  set_thread_count(16);  // far more threads than this machine has cores
  std::atomic<int> total{0};
  parallel_for(0, 64, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadCountGuard guard;
  set_thread_count(4);
  EXPECT_THROW(parallel_for(0, 32,
                            [&](std::size_t i) {
                              if (i == 17) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // Pool still serviceable afterwards.
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 8);
}

TEST(ParallelInvoke, RunsEveryTask) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::atomic<int> mask{0};
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < 5; ++t)
    tasks.push_back([&mask, t] { mask.fetch_or(1 << t); });
  parallel_invoke(tasks);
  EXPECT_EQ(mask.load(), 0b11111);
}

TEST(ParallelMatmul, BlockedKernelsBitIdenticalToReference) {
  ThreadCountGuard guard;
  Rng rng(123);
  linalg::Matrix a(37, 211), b(211, 53);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      a(i, j) = rng.bernoulli(0.1) ? 0.0 : rng.normal();
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  const linalg::Matrix ref = linalg::matmul_reference(a, b);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    const linalg::Matrix c = linalg::matmul(a, b);
    ASSERT_EQ(c.rows(), ref.rows());
    ASSERT_EQ(c.cols(), ref.cols());
    EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                          c.rows() * c.cols() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

TEST(ParallelMatmul, TransposedProductsMatchSerialBitwise) {
  ThreadCountGuard guard;
  Rng rng(321);
  linalg::Matrix a(301, 41), b(301, 29), d(41, 301);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.normal();
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j) d(i, j) = rng.normal();
  set_thread_count(1);
  const linalg::Matrix atb1 = linalg::matmul_at_b(a, b);
  const linalg::Matrix abt1 = linalg::matmul_a_bt(d, d);
  set_thread_count(4);
  const linalg::Matrix atb4 = linalg::matmul_at_b(a, b);
  const linalg::Matrix abt4 = linalg::matmul_a_bt(d, d);
  EXPECT_EQ(std::memcmp(atb1.data(), atb4.data(),
                        atb1.rows() * atb1.cols() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(abt1.data(), abt4.data(),
                        abt1.rows() * abt1.cols() * sizeof(double)),
            0);
}

bool matrices_identical(const linalg::Matrix& x, const linalg::Matrix& y) {
  // Empty matrices have null data(), which memcmp must not be given.
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.rows() * x.cols() == 0 ||
          std::memcmp(x.data(), y.data(),
                      x.rows() * x.cols() * sizeof(double)) == 0);
}

// --- SIMD microkernel bit-identity ---------------------------------------
//
// Every kern:: kernel must be byte-identical to its kern::ref:: scalar
// oracle with SIMD on and off, across empty/odd/prime lengths — the sizes
// are chosen so every AVX2 main-loop/tail split gets exercised (0 whole
// vectors, exactly one, one plus every tail length, and long runs).

/// Restores the SIMD dispatch choice when a test ends.
class SimdGuard {
 public:
  SimdGuard() : was_(linalg::kern::simd_level()) {}
  ~SimdGuard() { linalg::kern::set_simd_level(was_); }

 private:
  linalg::kern::SimdLevel was_;
};

using linalg::kern::simd_level_name;
using linalg::kern::SimdLevel;

/// Scalar and AVX2: every kernel but affine_min has no other body, so the
/// AVX-512 level would run these tests' AVX2 path a second time.
constexpr SimdLevel kOnOff[] = {SimdLevel::kScalar, SimdLevel::kAvx2};

/// Every level this CPU runs, for the affine_min tests. A level it lacks
/// is left out with a line naming it, so a test log shows what ran.
std::vector<SimdLevel> host_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= linalg::kern::max_simd_level())
      levels.push_back(level);
    else
      std::cout << "[ SKIPPED  ] SIMD level " << simd_level_name(level)
                << ": this CPU lacks it\n";
  }
  return levels;
}

const std::size_t kKernelSizes[] = {0, 1, 2, 3, 5, 7, 8, 13, 16, 17, 31, 64, 97};

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = rng.bernoulli(0.1) ? 0.0 : rng.normal();
  return v;
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(SimdKernels, ElementwiseBitIdenticalToScalarOracle) {
  SimdGuard guard;
  for (SimdLevel level : kOnOff) {
    linalg::kern::set_simd_level(level);
    for (std::size_t n : kKernelSizes) {
      const std::vector<double> x = random_doubles(n, 1000 + n);
      const std::vector<double> y0 = random_doubles(n, 2000 + n);

      std::vector<double> got = y0, want = y0;
      linalg::kern::axpy(n, 1.7, x.data(), got.data());
      linalg::kern::ref::axpy(n, 1.7, x.data(), want.data());
      EXPECT_TRUE(bytes_equal(got, want))
          << "axpy n=" << n << " " << simd_level_name(level);

      got = y0, want = y0;
      linalg::kern::scale(n, 0.77, got.data());
      linalg::kern::ref::scale(n, 0.77, want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "scale n=" << n;

      got = y0, want = y0;
      linalg::kern::add(n, x.data(), got.data());
      linalg::kern::ref::add(n, x.data(), want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "add n=" << n;

      got = y0, want = y0;
      linalg::kern::sub(n, x.data(), got.data());
      linalg::kern::ref::sub(n, x.data(), want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "sub n=" << n;
    }
  }
}

TEST(SimdKernels, PanelKernelsBitIdenticalToScalarOracle) {
  // The dot kernels continue each output's chain from the value already
  // in it: from random nonzero outputs every body must match kern::ref,
  // and a dot split at k1 into two calls, the second continuing from the
  // first's output, must be the one call over all of k from zero, as the
  // tiled Gram build relies on.
  SimdGuard guard;
  for (SimdLevel level : kOnOff) {
    linalg::kern::set_simd_level(level);
    for (std::size_t n : kKernelSizes) {
      const std::string tag =
          " n=" + std::to_string(n) + " " + simd_level_name(level);
      const std::vector<double> r0 = random_doubles(n, 10 + n);
      const std::vector<double> r1 = random_doubles(n, 20 + n);
      const std::vector<double> r2 = random_doubles(n, 30 + n);
      const std::vector<double> r3 = random_doubles(n, 40 + n);

      std::vector<double> panel(4 * n, -1.0), panel_want(4 * n, -1.0);
      linalg::kern::pack_panel(n, r0.data(), r1.data(), r2.data(), r3.data(),
                               panel.data());
      linalg::kern::ref::pack_panel(n, r0.data(), r1.data(), r2.data(),
                                    r3.data(), panel_want.data());
      EXPECT_TRUE(bytes_equal(panel, panel_want)) << "pack_panel" << tag;

      // Four A rows n + 1 apart; outputs in rows 6 apart.
      const std::size_t lda = n + 1, ldo = 6, k1 = n / 3;
      const std::vector<double> a = random_doubles(4 * lda, 65 + n);
      const double* a1 = a.data() + lda;
      const double* p1 = panel.data() + 4 * k1;
      const std::vector<double> start = random_doubles(4 * ldo, 90 + n);
      const std::vector<double> zero(4 * ldo, 0.0);

      std::vector<double> got = start, want = start;
      linalg::kern::dot_panel(n, a.data(), panel.data(), got.data());
      linalg::kern::ref::dot_panel(n, a.data(), panel.data(), want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "dot_panel" << tag;
      got = zero, want = zero;
      linalg::kern::dot_panel(k1, a.data(), panel.data(), got.data());
      linalg::kern::dot_panel(n - k1, a.data() + k1, p1, got.data());
      linalg::kern::ref::dot_panel(n, a.data(), panel.data(), want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "dot_panel split" << tag;

      got = start, want = start;
      linalg::kern::dot_panel2(n, a.data(), a1, panel.data(), got.data(),
                               got.data() + ldo);
      linalg::kern::ref::dot_panel2(n, a.data(), a1, panel.data(),
                                    want.data(), want.data() + ldo);
      EXPECT_TRUE(bytes_equal(got, want)) << "dot_panel2" << tag;
      got = zero, want = zero;
      linalg::kern::dot_panel2(k1, a.data(), a1, panel.data(), got.data(),
                               got.data() + ldo);
      linalg::kern::dot_panel2(n - k1, a.data() + k1, a1 + k1, p1,
                               got.data(), got.data() + ldo);
      linalg::kern::ref::dot_panel2(n, a.data(), a1, panel.data(),
                                    want.data(), want.data() + ldo);
      EXPECT_TRUE(bytes_equal(got, want)) << "dot_panel2 split" << tag;

      got = start, want = start;
      linalg::kern::dot_panel4(n, a.data(), lda, panel.data(), got.data(),
                               ldo);
      linalg::kern::ref::dot_panel4(n, a.data(), lda, panel.data(),
                                    want.data(), ldo);
      EXPECT_TRUE(bytes_equal(got, want)) << "dot_panel4" << tag;
      got = zero, want = zero;
      linalg::kern::dot_panel4(k1, a.data(), lda, panel.data(), got.data(),
                               ldo);
      linalg::kern::dot_panel4(n - k1, a.data() + k1, lda, p1, got.data(),
                               ldo);
      linalg::kern::ref::dot_panel4(n, a.data(), lda, panel.data(),
                                    want.data(), ldo);
      EXPECT_TRUE(bytes_equal(got, want)) << "dot_panel4 split" << tag;
    }
  }
}

TEST(SimdKernels, RankOneUpdateBitIdenticalToScalarOracle) {
  // Row widths around the vector width and its tails (0–9, 17) and the
  // group-lasso shapes (a 21- or 33-group working set, the 174-candidate
  // full sweep), at K = 30 rows with row stride n + 3, so a kernel that
  // writes past a row's width shows in the gap. Every third δ is zero, of
  // either sign, on a row holding −0.0 entries that an update would turn
  // into +0.0.
  SimdGuard guard;
  constexpr std::size_t kRows = 30;
  for (SimdLevel level : kOnOff) {
    linalg::kern::set_simd_level(level);
    for (std::size_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 21, 33, 174}) {
      const std::size_t ldp = n + 3;
      const std::vector<double> a = random_doubles(n, 110 + n);
      std::vector<double> delta = random_doubles(kRows, 120 + n);
      std::vector<double> p0 = random_doubles(kRows * ldp, 130 + n);
      for (std::size_t k = 0; k < kRows; k += 3) {
        delta[k] = k % 2 == 0 ? 0.0 : -0.0;
        for (std::size_t j = 0; j < ldp; j += 2) p0[k * ldp + j] = -0.0;
      }
      std::vector<double> got = p0, want = p0;
      linalg::kern::rank1_update(kRows, n, delta.data(), a.data(),
                                 got.data(), ldp);
      linalg::kern::ref::rank1_update(kRows, n, delta.data(), a.data(),
                                      want.data(), ldp);
      EXPECT_TRUE(bytes_equal(got, want))
          << "rank1_update n=" << n << " " << simd_level_name(level);
    }
  }
}

TEST(SimdKernels, DiffGramBitIdenticalToScalarOracle) {
  // Snapshot lengths 0, 1, 5 (one block of four and a tail) and 630 (a
  // 21-group working set at K = 30), plus every tail length around one
  // block. The snapshots drift like iterates, so the differences span
  // several magnitudes.
  SimdGuard guard;
  constexpr std::size_t d = linalg::kern::kDiffGramDepth;
  for (SimdLevel level : kOnOff) {
    linalg::kern::set_simd_level(level);
    for (std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 630}) {
      std::vector<std::vector<double>> snaps(d + 1);
      snaps[0] = random_doubles(n, 140 + n);
      for (std::size_t i = 1; i <= d; ++i) {
        const std::vector<double> step = random_doubles(n, 150 + 10 * i + n);
        snaps[i] = snaps[i - 1];
        for (std::size_t e = 0; e < n; ++e)
          snaps[i][e] += std::ldexp(step[e], -static_cast<int>(3 * i));
      }
      const double* x[d + 1];
      for (std::size_t i = 0; i <= d; ++i) x[i] = snaps[i].data();
      std::vector<double> got(d * d, -1.0), want(d * d, -2.0);
      linalg::kern::diff_gram(n, x, got.data());
      linalg::kern::ref::diff_gram(n, x, want.data());
      EXPECT_TRUE(bytes_equal(got, want))
          << "diff_gram n=" << n << " " << simd_level_name(level);
    }
  }
}

/// A lower envelope factor with the given first columns: random entries
/// scaled by 1/(row width + 1) and pivots of at least 2, so both sweeps
/// stay bounded however wide the rows are.
struct TestEnvelope {
  std::vector<std::size_t> first, start;
  std::vector<double> values, diag;

  TestEnvelope(std::vector<std::size_t> first_cols, std::uint64_t seed)
      : first(std::move(first_cols)), start(first.size() + 1, 0) {
    const std::size_t n = first.size();
    for (std::size_t i = 0; i < n; ++i)
      start[i + 1] = start[i] + (i - first[i]);
    values = random_doubles(start[n], seed);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = start[i]; k < start[i + 1]; ++k)
        values[k] /= static_cast<double>(i - first[i] + 1);
    diag = random_doubles(n, seed + 1);
    for (double& d : diag) d = 2.0 + std::abs(d);
  }

  linalg::kern::Envelope view() const {
    return {first.size(), first.data(), start.data(), values.data(),
            diag.data()};
  }
};

/// Runs both sweeps through the dispatcher and through kern::ref at every
/// stride: 1 (the one-lane AVX2 paths), 2 and 3 (the scalar sweep), and
/// the 8-/4-lane panels alone and mixed (4, 5 padded, 8, 12, 16, 20).
void expect_sweeps_match_oracle(const TestEnvelope& e, const char* kind) {
  const std::size_t n = e.first.size();
  for (std::size_t s : {1, 2, 3, 4, 5, 8, 12, 16, 20}) {
    const std::vector<double> y0 = random_doubles(n * s, 93 + n + s);
    std::vector<double> got = y0, want = y0;
    linalg::kern::lane_forward(e.view(), s, got.data());
    linalg::kern::ref::lane_forward(e.view(), s, want.data());
    EXPECT_TRUE(bytes_equal(got, want))
        << kind << " lane_forward n=" << n << " s=" << s << " "
        << simd_level_name(linalg::kern::simd_level());
    linalg::kern::lane_backward(e.view(), s, got.data());
    linalg::kern::ref::lane_backward(e.view(), s, want.data());
    EXPECT_TRUE(bytes_equal(got, want))
        << kind << " lane_backward n=" << n << " s=" << s << " "
        << simd_level_name(linalg::kern::simd_level());
  }
}

TEST(SimdKernels, LaneSubstitutionBitIdenticalToScalarOracle) {
  // Three envelope families, each at sizes of every residue mod 4 (the
  // forward sweep's row-block tails, the backward sweep's odd last row):
  //  - random: rows 0..12 wide, `first` unsorted;
  //  - RCM-like: `first` nondecreasing, rows up to 130 wide, so every
  //    four-row block shares a long range;
  //  - mixed: sorted runs of six rows alternating with six rows of random
  //    width, so blocks straddle both and private prefixes are long.
  SimdGuard guard;
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 9, 17, 200, 301, 402, 503};
  for (SimdLevel level : kOnOff) {
    linalg::kern::set_simd_level(level);
    for (std::size_t n : sizes) {
      Rng rng(90 + n);
      std::vector<std::size_t> random(n), rcm(n), mixed(n);
      std::size_t sorted = 0;
      for (std::size_t i = 0; i < n; ++i) {
        random[i] = i - std::min<std::size_t>(i, rng.uniform_index(13));
        rcm[i] = std::max(i > 0 ? rcm[i - 1] : 0,
                          i - std::min<std::size_t>(
                                  i, 100 + rng.uniform_index(31)));
        if ((i / 6) % 2 == 0) {
          sorted = std::max(sorted, i - std::min<std::size_t>(
                                            i, 60 + rng.uniform_index(71)));
          mixed[i] = sorted;
        } else {
          mixed[i] = i - std::min<std::size_t>(i, rng.uniform_index(131));
        }
      }
      expect_sweeps_match_oracle(TestEnvelope(random, 91 + n), "random");
      expect_sweeps_match_oracle(TestEnvelope(rcm, 191 + n), "rcm");
      expect_sweeps_match_oracle(TestEnvelope(mixed, 291 + n), "mixed");
    }
  }
}

/// G + C/dt of `grid`: the transient step matrix with resistive pads.
sparse::CsrMatrix step_matrix(const grid::PowerGrid& grid, double dt) {
  const sparse::CsrMatrix& g = grid.conductance();
  std::vector<double> values = g.values();
  for (std::size_t r = 0; r < g.rows(); ++r)
    for (std::size_t k = g.row_ptr()[r]; k < g.row_ptr()[r + 1]; ++k)
      if (g.col_idx()[k] == r) values[k] += grid.capacitance()[r] / dt;
  return sparse::CsrMatrix(g.rows(), g.cols(), g.row_ptr(), g.col_idx(),
                           std::move(values));
}

TEST(SimdKernels, StepMatrixLaneSolvesBitIdenticalToScalarOracle) {
  // solve_lanes on the real 96x96 step matrix (RCM: every four-row block
  // sorted) and on a two-layer one (many unsorted blocks), SIMD against
  // the scalar oracle kernels.
  SimdGuard guard;
  grid::GridConfig two_layer = core::default_setup().grid;
  two_layer.nx = two_layer.ny = 48;
  two_layer.two_layer = true;
  for (const grid::GridConfig& config :
       {core::default_setup().grid, two_layer}) {
    const grid::PowerGrid grid(config);
    const sparse::SkylineCholesky factor(step_matrix(grid, 100e-12));
    const std::size_t n = factor.dim();
    for (std::size_t lanes : {1, 5, 8, 20}) {
      const std::vector<double> b = random_doubles(n * lanes, 7 + lanes);
      std::vector<double> got(n * lanes), want(n * lanes);
      linalg::kern::set_simd_level(linalg::kern::SimdLevel::kAvx2);
      factor.solve_lanes(lanes, b.data(), got.data());
      linalg::kern::set_simd_level(linalg::kern::SimdLevel::kScalar);
      factor.solve_lanes(lanes, b.data(), want.data());
      EXPECT_TRUE(bytes_equal(got, want))
          << "n=" << n << " two_layer=" << config.two_layer
          << " lanes=" << lanes;
    }
  }
}

TEST(SimdKernels, StridedReductionsBitIdenticalToScalarOracle) {
  SimdGuard guard;
  for (SimdLevel level : kOnOff) {
    linalg::kern::set_simd_level(level);
    for (std::size_t n : kKernelSizes) {
      const std::vector<double> x = random_doubles(n, 70 + n);
      const std::vector<double> y = random_doubles(n, 80 + n);
      const double dot_got = linalg::kern::dot(n, x.data(), y.data());
      const double dot_want = linalg::kern::ref::dot(n, x.data(), y.data());
      EXPECT_EQ(std::memcmp(&dot_got, &dot_want, sizeof(double)), 0)
          << "dot n=" << n << " " << simd_level_name(level);
    }
  }
}

/// Runs kern::affine_min and kern::ref::affine_min on the same inputs and
/// expects byte-equal worst values and rows. The scratch tile starts out
/// holding a value below any prediction, so a kernel that leaves an
/// unwritten row unzeroed reports it.
void expect_affine_min_matches_oracle(
    std::size_t n_rows, const std::vector<linalg::kern::AffineBlock>& blocks,
    std::size_t n, const std::vector<double>& x, std::size_t ldx,
    const std::string& tag) {
  std::vector<double> tile(n_rows * linalg::kern::kAffinePanel, -1e300);
  std::vector<double> worst_got(n, -1.0), worst_want(n, -2.0);
  std::vector<std::size_t> row_got(n, 7777), row_want(n, 8888);
  linalg::kern::affine_min(n_rows, blocks.data(), blocks.size(), n, x.data(),
                           ldx, tile.data(), worst_got.data(), row_got.data());
  linalg::kern::ref::affine_min(n_rows, blocks.data(), blocks.size(), n,
                                x.data(), ldx, tile.data(), worst_want.data(),
                                row_want.data());
  EXPECT_TRUE(bytes_equal(worst_got, worst_want)) << "values " << tag;
  EXPECT_EQ(row_got, row_want) << "rows " << tag;
}

TEST(SimdKernels, AffineMinBitIdenticalToScalarOracle) {
  // Row counts around the AVX2 4-row and AVX-512 8-row register blocks
  // (every 4/2/1-row tail of the 8-row one), sensor counts around the
  // vector width, and reading counts around the 8-reading panel (0, one
  // partial panel, exactly one, one plus a tail, many), at every level the
  // CPU runs. Readings are wider than the block and read through a
  // shuffled in_col, with ldx > n.
  SimdGuard guard;
  for (SimdLevel level : host_levels()) {
    linalg::kern::set_simd_level(level);
    for (std::size_t rows : {1, 3, 4, 5, 7, 8, 9, 16, 240}) {
      for (std::size_t cols : {1, 2, 16, 17}) {
        const std::size_t width = cols + 2;
        Rng rng(500 + rows * 31 + cols);
        std::vector<std::size_t> in_col(width);
        for (std::size_t c = 0; c < width; ++c) in_col[c] = width - 1 - c;
        for (std::size_t c = width; c-- > 1;)
          std::swap(in_col[c], in_col[rng.uniform_index(c + 1)]);
        in_col.resize(cols);
        std::vector<std::size_t> out_row(rows);
        for (std::size_t k = 0; k < rows; ++k) out_row[k] = k;
        const std::vector<double> coef =
            random_doubles(rows * cols, 600 + rows + cols);
        const std::vector<double> offset = random_doubles(rows, 700 + rows);
        const std::vector<linalg::kern::AffineBlock> blocks = {
            {rows, cols, coef.data(), offset.data(), out_row.data(),
             in_col.data()}};
        for (std::size_t n : {0, 1, 7, 8, 9, 513}) {
          const std::size_t ldx = n + 3;
          const std::vector<double> x =
              random_doubles(width * ldx, 800 + n + cols);
          expect_affine_min_matches_oracle(
              rows, blocks, n, x, ldx,
              "rows=" + std::to_string(rows) + " cols=" +
                  std::to_string(cols) + " n=" + std::to_string(n) +
                  " " + simd_level_name(level));
        }
      }
    }
  }
}

TEST(SimdKernels, AffineMinTiesOverflowAndLayouts) {
  SimdGuard guard;
  constexpr std::size_t kCols = 3;
  const std::vector<std::size_t> in_col = {0, 1, 2};
  for (SimdLevel level : host_levels()) {
    linalg::kern::set_simd_level(level);
    const std::string tag = std::string(" ") + simd_level_name(level);
    bool saw_negative_inf = false;
    for (std::size_t n : {1, 9, 17}) {
      const std::vector<double> x = random_doubles(kCols * n, 950 + n);

      // Tied rows: rows 2, 5 and 6 share their coefficients and a deep
      // offset, so they tie for the minimum of every reading and the first
      // of them must win.
      constexpr std::size_t kRows = 7;
      std::vector<double> coef = random_doubles(kRows * kCols, 960);
      std::vector<double> offset(kRows, 0.0);
      for (std::size_t k : {5, 6})
        for (std::size_t q = 0; q < kCols; ++q)
          coef[k * kCols + q] = coef[2 * kCols + q];
      for (std::size_t k : {2, 5, 6}) offset[k] = -100.0;
      std::vector<std::size_t> out_row(kRows);
      for (std::size_t k = 0; k < kRows; ++k) out_row[k] = k;
      const std::vector<linalg::kern::AffineBlock> tied = {
          {kRows, kCols, coef.data(), offset.data(), out_row.data(),
           in_col.data()}};
      std::vector<double> tile(kRows * linalg::kern::kAffinePanel);
      std::vector<double> worst(n);
      std::vector<std::size_t> row(n);
      linalg::kern::affine_min(kRows, tied.data(), 1, n, x.data(), n,
                               tile.data(), worst.data(), row.data());
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(row[j], 2u) << "tie j=" << j << tag;
      expect_affine_min_matches_oracle(kRows, tied, n, x, n, "tie" + tag);

      // Overflow: rows 0 and 4 sum terms of ±1e308 scale, so their
      // predictions overflow to ±inf for some readings, and -inf must win.
      std::vector<double> big = coef;
      for (std::size_t q = 0; q < kCols; ++q)
        big[q] = (q % 2 == 0 ? 1.0 : -1.0) * 1e308;
      big[4 * kCols] = -1e308;
      const std::vector<linalg::kern::AffineBlock> overflow = {
          {kRows, kCols, big.data(), offset.data(), out_row.data(),
           in_col.data()}};
      expect_affine_min_matches_oracle(kRows, overflow, n, x, n,
                                       "overflow" + tag);
      linalg::kern::affine_min(kRows, overflow.data(), 1, n, x.data(), n,
                               tile.data(), worst.data(), row.data());
      for (double w : worst) saw_negative_inf |= std::isinf(w) && w < 0;

      // NaN: a NaN row 3 never replaces the running minimum, and a NaN
      // row 0 stands against every later row.
      constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
      std::vector<double> nan3 = coef, nan0 = coef;
      nan3[3 * kCols] = kNaN;
      nan0[0] = kNaN;
      const std::vector<linalg::kern::AffineBlock> nan_later = {
          {kRows, kCols, nan3.data(), offset.data(), out_row.data(),
           in_col.data()}};
      const std::vector<linalg::kern::AffineBlock> nan_first = {
          {kRows, kCols, nan0.data(), offset.data(), out_row.data(),
           in_col.data()}};
      expect_affine_min_matches_oracle(kRows, nan_later, n, x, n,
                                       "nan row 3" + tag);
      expect_affine_min_matches_oracle(kRows, nan_first, n, x, n,
                                       "nan row 0" + tag);
      linalg::kern::affine_min(kRows, nan_later.data(), 1, n, x.data(), n,
                               tile.data(), worst.data(), row.data());
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(row[j], 2u) << "nan row 3, j=" << j << tag;
      linalg::kern::affine_min(kRows, nan_first.data(), 1, n, x.data(), n,
                               tile.data(), worst.data(), row.data());
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(row[j], 0u) << "nan row 0, j=" << j << tag;
        EXPECT_TRUE(std::isnan(worst[j])) << "nan row 0, j=" << j << tag;
      }

      // Multi-block layout: interleaved rows, one row (5) no block writes
      // — it predicts 0.0 — and one (3) both write, where the later block
      // wins. Offsets are positive and odd readings are small, so row 5
      // is the minimum of those readings.
      const std::vector<std::size_t> rows_a = {0, 3, 6, 9};
      const std::vector<std::size_t> rows_b = {8, 1, 4, 7, 3, 2};
      const std::vector<std::size_t> cols_b = {2, 0};
      const std::vector<double> coef_a = random_doubles(4 * kCols, 970);
      const std::vector<double> coef_b = random_doubles(6 * 2, 972);
      std::vector<double> off_a = random_doubles(4, 971);
      std::vector<double> off_b = random_doubles(6, 973);
      for (double& o : off_a) o = 0.5 + std::abs(o);
      for (double& o : off_b) o = 0.5 + std::abs(o);
      std::vector<double> x_mixed = x;
      for (std::size_t q = 0; q < kCols; ++q)
        for (std::size_t j = 1; j < n; j += 2) x_mixed[q * n + j] *= 0.01;
      const std::vector<linalg::kern::AffineBlock> layout = {
          {4, kCols, coef_a.data(), off_a.data(), rows_a.data(),
           in_col.data()},
          {6, 2, coef_b.data(), off_b.data(), rows_b.data(), cols_b.data()}};
      expect_affine_min_matches_oracle(10, layout, n, x_mixed, n,
                                       "layout" + tag);
      std::vector<double> layout_worst(n);
      std::vector<std::size_t> layout_row(n);
      std::vector<double> layout_tile(10 * linalg::kern::kAffinePanel);
      linalg::kern::affine_min(10, layout.data(), layout.size(), n,
                               x_mixed.data(), n, layout_tile.data(),
                               layout_worst.data(), layout_row.data());
      if (n > 1) {
        EXPECT_EQ(layout_row[1], 5u) << "uncovered row" << tag;
        EXPECT_EQ(layout_worst[1], 0.0) << "uncovered row" << tag;
      }
    }
    EXPECT_TRUE(saw_negative_inf) << "no reading overflowed to -inf" << tag;
  }
}

TEST(SimdKernels, MatmulFamilyBitIdenticalAcrossSimdAndThreads) {
  ThreadCountGuard tguard;
  SimdGuard sguard;
  // Odd/prime/empty shapes, plus one large enough (160·131·97 ≈ 4 Mflop)
  // that dispatch_rows actually fans out at 2+ threads. The Gram rows
  // r ∈ {1, 3, 4, 5, 9, 30} with k not a multiple of 4 cover every
  // panel/tail split of matmul_a_at; 30·31/2·16383 ≈ 7.6 Mflop fans its
  // triangle out too.
  struct Shape {
    std::size_t r, k, c;
  };
  const Shape shapes[] = {{1, 1, 1},  {3, 5, 2},     {7, 13, 5},
                          {17, 31, 8}, {0, 4, 2},     {3, 0, 2},
                          {3, 5, 0},  {160, 131, 97}, {4, 7, 3},
                          {5, 9, 2},  {9, 11, 4},     {30, 16383, 2}};
  for (const Shape& s : shapes) {
    Rng rng(900 + s.r + s.k + s.c);
    linalg::Matrix a(s.r, s.k), b(s.k, s.c);
    linalg::Matrix at(s.k, s.r), bt(s.c, s.k);
    for (std::size_t i = 0; i < s.r; ++i)
      for (std::size_t j = 0; j < s.k; ++j)
        at(j, i) = a(i, j) = rng.bernoulli(0.1) ? 0.0 : rng.normal();
    for (std::size_t i = 0; i < s.k; ++i)
      for (std::size_t j = 0; j < s.c; ++j)
        bt(j, i) = b(i, j) = rng.normal();
    const linalg::Matrix want = linalg::matmul_reference(a, b);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (SimdLevel level : kOnOff) {
        set_thread_count(threads);
        linalg::kern::set_simd_level(level);
        const std::string tag = " shape=" + std::to_string(s.r) + "x" +
                                std::to_string(s.k) + "x" + std::to_string(s.c) +
                                " threads=" + std::to_string(threads) + " " +
                                simd_level_name(level);
        const linalg::Matrix c1 = linalg::matmul(a, b);
        EXPECT_TRUE(matrices_identical(c1, want)) << "matmul" << tag;
        // Aᵀ·B and A·Bᵀ of the transposed operands compute the same
        // product, each element in the same ascending-k single-accumulator
        // order as matmul_reference — so all three must agree bytewise.
        const linalg::Matrix c2 = linalg::matmul_at_b(at, b);
        EXPECT_TRUE(matrices_identical(c2, want)) << "matmul_at_b" << tag;
        const linalg::Matrix c3 = linalg::matmul_a_bt(a, bt);
        EXPECT_TRUE(matrices_identical(c3, want)) << "matmul_a_bt" << tag;
        // The symmetric Gram computes each lower entry by the same chain
        // and mirrors it: equal to A·Aᵀ bytewise, and exactly symmetric.
        const linalg::Matrix gram = linalg::matmul_a_at(a);
        EXPECT_TRUE(matrices_identical(gram, linalg::matmul_a_bt(a, a)))
            << "matmul_a_at" << tag;
        EXPECT_TRUE(matrices_identical(gram, gram.transposed()))
            << "matmul_a_at symmetry" << tag;
      }
    }
  }
}

TEST(SimdKernels, GramPanelRowTailsBitIdenticalAcrossSimdAndThreads) {
  // matmul_a_at sweeps each panel 4 rows at a time, then a 2- and a 1-row
  // tail, from row max(i0, panel) of its chunk [i0, i1). Row counts 1–11
  // hit every tail in one chunk; 14 rows of 40001 (about 4.2 Mflop) split
  // into 4 chunks at 2 and 4 threads, whose panels start 2, 3 and 4 rows
  // before their chunk ends. Each Gram must equal the naive product and
  // the scalar single-thread one byte for byte.
  ThreadCountGuard tguard;
  SimdGuard sguard;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 7},  {2, 7},  {3, 7},  {4, 7},   {5, 9},     {6, 9},
      {7, 9},  {8, 13}, {9, 13}, {11, 13}, {14, 40001}};
  for (const auto& [m, k] : shapes) {
    Rng rng(1000 + m + k);
    linalg::Matrix a(m, k), at(k, m);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < k; ++j)
        at(j, i) = a(i, j) = rng.bernoulli(0.1) ? 0.0 : rng.normal();
    const linalg::Matrix naive = linalg::matmul_reference(a, at);
    set_thread_count(1);
    linalg::kern::set_simd_level(SimdLevel::kScalar);
    const linalg::Matrix scalar = linalg::matmul_a_at(a);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (SimdLevel level : kOnOff) {
        set_thread_count(threads);
        linalg::kern::set_simd_level(level);
        const std::string tag = " m=" + std::to_string(m) + " k=" +
                                std::to_string(k) + " threads=" +
                                std::to_string(threads) + " " +
                                simd_level_name(level);
        const linalg::Matrix gram = linalg::matmul_a_at(a);
        EXPECT_TRUE(matrices_identical(gram, naive)) << "naive" << tag;
        EXPECT_TRUE(matrices_identical(gram, scalar)) << "scalar" << tag;
      }
    }
  }
}

TEST(SimdKernels, TiledGramBitIdenticalAcrossSimdAndThreads) {
  // tiled_gram adds each kGramTile-column tile's products to running sums,
  // so Z·Zᵀ and G·Zᵀ must equal matmul_a_at(Z) and matmul_a_bt(G, Z) byte
  // for byte. Shapes: one partial tile; 2.5 tiles with m % 4 = 3 tail
  // columns; and two whose tiles (about 2.8 and 2.3 Mflop) split across
  // the pool at 2 and 4 threads, one with the chunk boundary inside the
  // Gram rows and one inside the cross rows.
  ThreadCountGuard tguard;
  SimdGuard sguard;
  struct Shape {
    std::size_t m, k, n;
  };
  const std::size_t t = linalg::kGramTile;
  const Shape shapes[] = {{5, 3, 7},
                          {23, 9, 2 * t + t / 2 + 3},
                          {120, 30, t + 1},
                          {40, 200, 2 * t}};
  for (const Shape& s : shapes) {
    Rng rng(1100 + s.m + s.k + s.n);
    linalg::Matrix z(s.m, s.n), g(s.k, s.n);
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.n; ++j)
        z(i, j) = rng.bernoulli(0.1) ? 0.0 : rng.normal();
    for (std::size_t i = 0; i < s.k; ++i)
      for (std::size_t j = 0; j < s.n; ++j) g(i, j) = rng.normal();
    const auto write = [&](std::size_t c0, std::size_t c1, double* zt,
                           double* gt) {
      const std::size_t w = c1 - c0;
      for (std::size_t i = 0; i < s.m; ++i)
        for (std::size_t j = c0; j < c1; ++j) zt[i * w + j - c0] = z(i, j);
      for (std::size_t i = 0; i < s.k; ++i)
        for (std::size_t j = c0; j < c1; ++j) gt[i * w + j - c0] = g(i, j);
    };
    set_thread_count(1);
    linalg::kern::set_simd_level(SimdLevel::kScalar);
    const linalg::Matrix zzt = linalg::matmul_a_at(z);
    const linalg::Matrix gzt = linalg::matmul_a_bt(g, z);
    for (std::size_t threads : {1, 2, 4}) {
      for (SimdLevel level : kOnOff) {
        set_thread_count(threads);
        linalg::kern::set_simd_level(level);
        const std::string tag = " m=" + std::to_string(s.m) + " k=" +
                                std::to_string(s.k) + " n=" +
                                std::to_string(s.n) + " threads=" +
                                std::to_string(threads) + " " +
                                simd_level_name(level);
        const linalg::GramPair pair = linalg::tiled_gram(s.m, s.k, s.n, write);
        EXPECT_TRUE(matrices_identical(pair.zzt, zzt)) << "Z·Zᵀ" << tag;
        EXPECT_TRUE(matrices_identical(pair.gzt, gzt)) << "G·Zᵀ" << tag;
      }
    }
  }
}

// --- work-quantum chunking helpers ----------------------------------------

TEST(WorkQuantum, RecommendedChunksRespectsFloorsAndCaps) {
  ThreadCountGuard guard;
  set_thread_count(4);
  // Tiny total work: not worth waking the pool.
  EXPECT_EQ(recommended_chunks(1000, 10.0), 1u);
  EXPECT_EQ(recommended_chunks(0, 1e9), 0u);
  // Huge per-item work: capped by item count.
  EXPECT_EQ(recommended_chunks(3, 1e9), 3u);
  // Abundant work: capped by threads * max_per_thread.
  EXPECT_EQ(recommended_chunks(100000, 1e6), 16u);
  EXPECT_EQ(recommended_chunks(100000, 1e6, /*max_per_thread=*/1), 4u);
  // One thread: always inline.
  set_thread_count(1);
  EXPECT_EQ(recommended_chunks(100000, 1e6), 1u);
}

// --- bit-identity of the collection / fitting layers ---------------------

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ParallelDeterminismTest()
      : setup_(core::small_setup()),
        grid_(setup_.grid),
        plan_(grid_, setup_.floorplan) {
    suite_ = workload::parsec_like_suite();
    suite_.resize(3);
    config_ = setup_.data;
    config_.warmup_steps = 30;
    config_.train_maps_per_benchmark = 40;
    config_.test_maps_per_benchmark = 15;
    config_.calibration_steps = 80;
  }
  ~ParallelDeterminismTest() override { set_thread_count(0); }

  core::Dataset collect_with(std::size_t threads) const {
    set_thread_count(threads);
    return core::DataCollector(grid_, plan_, config_).collect(suite_);
  }

  core::ExperimentSetup setup_;
  grid::PowerGrid grid_;
  chip::Floorplan plan_;
  std::vector<workload::BenchmarkProfile> suite_;
  core::DataConfig config_;
};

TEST_F(ParallelDeterminismTest, CollectionBitIdenticalAcrossThreadCounts) {
  // Three benchmarks make one three-lane panel at every thread count, so
  // this checks the rest of the collect; DatasetPipelineTest's
  // CollectIsIndependentOfTheThreadCount varies the panels.
  const core::Dataset serial = collect_with(1);
  for (std::size_t threads : {2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const core::Dataset parallel = collect_with(threads);
    EXPECT_EQ(serial.platform, parallel.platform);
    EXPECT_EQ(serial.workload_hash, parallel.workload_hash);
    EXPECT_EQ(serial.current_scale, parallel.current_scale);
    EXPECT_EQ(serial.candidate_nodes, parallel.candidate_nodes);
    EXPECT_EQ(serial.critical_nodes, parallel.critical_nodes);
    EXPECT_EQ(serial.critical_block, parallel.critical_block);
    EXPECT_TRUE(matrices_identical(serial.x_train, parallel.x_train));
    EXPECT_TRUE(matrices_identical(serial.f_train, parallel.f_train));
    EXPECT_TRUE(matrices_identical(serial.x_test, parallel.x_test));
    EXPECT_TRUE(matrices_identical(serial.f_test, parallel.f_test));
    ASSERT_EQ(serial.benchmarks.size(), parallel.benchmarks.size());
    for (std::size_t b = 0; b < serial.benchmarks.size(); ++b) {
      EXPECT_EQ(serial.benchmarks[b].name, parallel.benchmarks[b].name);
      EXPECT_EQ(serial.benchmarks[b].train_begin,
                parallel.benchmarks[b].train_begin);
      EXPECT_EQ(serial.benchmarks[b].test_end,
                parallel.benchmarks[b].test_end);
    }
  }
}

TEST_F(ParallelDeterminismTest, PlacementFitBitIdenticalAcrossThreadCounts) {
  set_thread_count(1);
  const core::Dataset data =
      core::DataCollector(grid_, plan_, config_).collect(suite_);
  core::PipelineConfig pc;
  pc.lambda = 6.0;
  const core::PlacementModel serial = core::fit_placement(data, plan_, pc);
  set_thread_count(4);
  const core::PlacementModel parallel = core::fit_placement(data, plan_, pc);

  EXPECT_EQ(serial.sensor_rows(), parallel.sensor_rows());
  EXPECT_EQ(serial.sensor_nodes(), parallel.sensor_nodes());
  ASSERT_EQ(serial.cores().size(), parallel.cores().size());
  for (std::size_t c = 0; c < serial.cores().size(); ++c) {
    const auto& sc = serial.cores()[c];
    const auto& pc2 = parallel.cores()[c];
    EXPECT_EQ(sc.selected_rows, pc2.selected_rows);
    EXPECT_EQ(sc.block_rows, pc2.block_rows);
    EXPECT_TRUE(matrices_identical(sc.alpha, pc2.alpha));
    ASSERT_EQ(sc.intercept.size(), pc2.intercept.size());
    for (std::size_t k = 0; k < sc.intercept.size(); ++k)
      EXPECT_EQ(sc.intercept[k], pc2.intercept[k]);
  }
}

}  // namespace
}  // namespace vmap
