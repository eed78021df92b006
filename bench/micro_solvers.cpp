// Engineering microbenchmarks (google-benchmark): group-lasso solver
// scaling, skyline factorization and grid solves, transient step cost,
// and least-squares kernels. These back DESIGN.md §5's ablation notes
// rather than any specific paper figure.

#include <benchmark/benchmark.h>

#include "core/group_lasso.hpp"
#include "grid/power_grid.hpp"
#include "grid/transient.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "sparse/skyline_cholesky.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace vmap;

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  return m;
}

core::GroupLassoProblem planted_problem(std::size_t m, std::size_t k,
                                        std::size_t n) {
  Rng rng(42);
  linalg::Matrix z = random_matrix(m, n, 1);
  linalg::Matrix beta(k, m);
  for (std::size_t s = 0; s < m; s += m / 4 + 1)
    for (std::size_t kk = 0; kk < k; ++kk) beta(kk, s) = rng.normal();
  linalg::Matrix g = linalg::matmul(beta, z);
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t c = 0; c < n; ++c) g(kk, c) += 0.1 * rng.normal();
  return core::GroupLassoProblem::from_data(z, g);
}

void BM_GroupLassoBcd(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto problem = planted_problem(m, 30, 1000);
  core::GroupLasso solver(problem);
  const double mu = solver.mu_max() * 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_penalized(mu));
  }
  state.SetLabel("M=" + std::to_string(m) + " K=30 N=1000");
}
BENCHMARK(BM_GroupLassoBcd)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The solve is serial; M = 174 candidates and K = 30 blocks is the Table-2
// per-core shape.
void BM_GroupLassoBudget(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto problem = planted_problem(m, 30, 1000);
  core::GroupLasso solver(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_budget(2.0));
  }
  state.SetLabel("budget path, M=" + std::to_string(m) + " K=30");
}
BENCHMARK(BM_GroupLassoBudget)->Arg(64)->Arg(174);

grid::GridConfig bench_grid(std::size_t n) {
  grid::GridConfig c;
  c.nx = n;
  c.ny = n;
  c.pad_spacing = 12;
  return c;
}

void BM_SkylineFactorize(benchmark::State& state) {
  const grid::PowerGrid grid(bench_grid(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    sparse::SkylineCholesky factor(grid.conductance());
    benchmark::DoNotOptimize(factor.envelope_size());
  }
  state.SetLabel(std::to_string(state.range(0)) + "x" +
                 std::to_string(state.range(0)) + " grid");
}
BENCHMARK(BM_SkylineFactorize)->Arg(32)->Arg(64)->Arg(96);

void BM_SkylineSolve(benchmark::State& state) {
  const grid::PowerGrid grid(bench_grid(static_cast<std::size_t>(state.range(0))));
  const sparse::SkylineCholesky factor(grid.conductance());
  Rng rng(3);
  linalg::Vector b(grid.node_count());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();
  for (auto _ : state) benchmark::DoNotOptimize(factor.solve(b));
  state.SetLabel(std::to_string(state.range(0)) + "x" +
                 std::to_string(state.range(0)) + " grid");
}
BENCHMARK(BM_SkylineSolve)->Arg(32)->Arg(64)->Arg(96);

// Multi-RHS solves through one factor: items/s counts columns (right-hand
// sides), so the lane speed-up per column reads directly off the table.
void BM_SkylineSolveLanes(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const grid::PowerGrid grid(bench_grid(96));
  const sparse::SkylineCholesky factor(grid.conductance());
  Rng rng(3);
  std::vector<double> b(grid.node_count() * lanes), x(b.size());
  for (double& v : b) v = rng.normal();
  for (auto _ : state) {
    factor.solve_lanes(lanes, b.data(), x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
  state.SetLabel("96x96 grid, " + std::to_string(lanes) + " lanes, " +
                 linalg::kern::simd_level_name(linalg::kern::simd_level()));
}
// 5 is a set-up collect chunk's width, 20 perf_suite's one-thread width,
// 16 a wider reference point.
BENCHMARK(BM_SkylineSolveLanes)
    ->Arg(1)
    ->Arg(4)
    ->Arg(5)
    ->Arg(8)
    ->Arg(16)
    ->Arg(20);

// One step of a `lanes`-wide simulator: rhs assembly, both sweeps and the
// scatter back to node order. items/s counts lane-steps.
void BM_TransientStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const grid::PowerGrid grid(bench_grid(n));
  grid::TransientSim sim(grid, 100e-12, lanes);
  Rng rng(5);
  std::vector<linalg::Vector> loads(lanes, linalg::Vector(grid.node_count()));
  for (linalg::Vector& load : loads)
    for (std::size_t i = 0; i < load.size(); ++i)
      load[i] = rng.bernoulli(0.3) ? 1e-3 : 0.0;
  for (auto _ : state) benchmark::DoNotOptimize(sim.step(loads).data());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "x" + std::to_string(n) + " grid, " +
                 std::to_string(lanes) + " lanes, " +
                 linalg::kern::simd_level_name(linalg::kern::simd_level()));
}
BENCHMARK(BM_TransientStep)
    ->Args({32, 1})
    ->Args({64, 1})
    ->Args({96, 1})
    ->Args({96, 5});

// --- dense matmul: naive reference vs the cache-blocked kernel, and the
// blocked kernel's thread scaling (labels carry a threads= column). The
// blocked kernel is bit-identical to the naive one at every thread count;
// only the wall clock should move.

void BM_MatmulNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(n, 4 * n, 8);
  const auto b = random_matrix(4 * n, n, 9);
  for (auto _ : state)
    benchmark::DoNotOptimize(linalg::matmul_reference(a, b));
  state.SetLabel("N=" + std::to_string(n) + "x" + std::to_string(4 * n) +
                 " threads=1 naive");
}
BENCHMARK(BM_MatmulNaive)->Arg(128)->Arg(256)->Arg(384);

void BM_MatmulBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto a = random_matrix(n, 4 * n, 8);
  const auto b = random_matrix(4 * n, n, 9);
  set_thread_count(threads);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::matmul(a, b));
  set_thread_count(1);
  state.SetLabel("N=" + std::to_string(n) + "x" + std::to_string(4 * n) +
                 " threads=" + std::to_string(threads) + " blocked");
}
BENCHMARK(BM_MatmulBlocked)
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({384, 1})
    ->Args({256, 2})
    ->Args({384, 2})
    ->Args({384, 4});

void BM_GramMatrix(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto z = random_matrix(m, 4000, 10);
  set_thread_count(threads);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::matmul_a_at(z));
  set_thread_count(1);
  state.SetLabel("M=" + std::to_string(m) +
                 " N=4000 threads=" + std::to_string(threads));
}
BENCHMARK(BM_GramMatrix)->Args({128, 1})->Args({128, 2})->Args({256, 1})->Args({256, 2});

// --- SIMD dispatch: the raw kern:: primitives with the AVX2 path on vs
// forced off (results are bit-identical either way; only wall clock moves).

void BM_KernDotAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool simd = state.range(1) != 0;
  Rng rng(13);
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  const linalg::kern::SimdLevel was = linalg::kern::simd_level();
  linalg::kern::set_simd_level(simd ? linalg::kern::SimdLevel::kAvx2
                                    : linalg::kern::SimdLevel::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::kern::dot(n, x.data(), y.data()));
    linalg::kern::axpy(n, 1e-9, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  linalg::kern::set_simd_level(was);
  state.SetLabel("n=" + std::to_string(n) + " " + (simd ? "simd" : "scalar"));
}
BENCHMARK(BM_KernDotAxpy)
    ->Args({1 << 12, 0})
    ->Args({1 << 12, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

// One group update's P = βA refresh: K = 30 rows of width |S| (the
// working-set block) each take δ_k·A_m, at every dispatch level the CPU
// runs (an AVX-512 level runs the AVX2 body; see EXPERIMENTS.md).
void BM_KernRank1Update(benchmark::State& state) {
  constexpr std::size_t kRows = 30;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto level = static_cast<linalg::kern::SimdLevel>(state.range(1));
  if (level > linalg::kern::max_simd_level()) {
    state.SkipWithError("SIMD level not supported by this CPU");
    return;
  }
  Rng rng(17);
  std::vector<double> a(n), delta(kRows), p(kRows * n);
  for (double& v : a) v = rng.normal();
  for (double& v : delta) v = 1e-9 * rng.normal();
  for (double& v : p) v = rng.normal();
  const linalg::kern::SimdLevel was = linalg::kern::simd_level();
  linalg::kern::set_simd_level(level);
  for (auto _ : state) {
    linalg::kern::rank1_update(kRows, n, delta.data(), a.data(), p.data(), n);
    benchmark::DoNotOptimize(p.data());
    benchmark::ClobberMemory();
  }
  linalg::kern::set_simd_level(was);
  state.SetLabel("|S|=" + std::to_string(n) + " K=30 " +
                 linalg::kern::simd_level_name(level));
}
BENCHMARK(BM_KernRank1Update)->ArgsProduct({{8, 21, 64}, {0, 1, 2}});

void BM_MatmulScalarDispatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool simd = state.range(1) != 0;
  const auto a = random_matrix(n, 4 * n, 8);
  const auto b = random_matrix(4 * n, n, 9);
  const linalg::kern::SimdLevel was = linalg::kern::simd_level();
  linalg::kern::set_simd_level(simd ? linalg::kern::SimdLevel::kAvx2
                                    : linalg::kern::SimdLevel::kScalar);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::matmul(a, b));
  linalg::kern::set_simd_level(was);
  state.SetLabel("N=" + std::to_string(n) + "x" + std::to_string(4 * n) +
                 (simd ? " simd" : " scalar"));
}
BENCHMARK(BM_MatmulScalarDispatch)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_QrLeastSquares(benchmark::State& state) {
  const auto a = random_matrix(1000, static_cast<std::size_t>(state.range(0)), 6);
  Rng rng(7);
  linalg::Vector b(1000);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();
  for (auto _ : state) benchmark::DoNotOptimize(linalg::lstsq(a, b));
  state.SetLabel("1000x" + std::to_string(state.range(0)));
}
BENCHMARK(BM_QrLeastSquares)->Arg(8)->Arg(32)->Arg(64);

void BM_NormalEquations(benchmark::State& state) {
  const auto a = random_matrix(1000, static_cast<std::size_t>(state.range(0)), 6);
  Rng rng(7);
  linalg::Vector b(1000);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();
  for (auto _ : state)
    benchmark::DoNotOptimize(linalg::solve_normal_equations(a, b));
  state.SetLabel("1000x" + std::to_string(state.range(0)));
}
BENCHMARK(BM_NormalEquations)->Arg(8)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
