// Group-lasso solver tests: optimality (KKT), the duality-gap certificate,
// a closed-form oracle, support recovery on planted problems, budget
// semantics, candidate-order invariance, the paper's §2.3 shrinkage
// example, and bit-identical solves at every kernel dispatch level.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <numeric>
#include <string>

#include "core/group_lasso.hpp"
#include "core/normalizer.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace vmap::core {
namespace {

struct Planted {
  linalg::Matrix z;          // M x N
  linalg::Matrix g;          // K x N
  std::vector<std::size_t> support;
};

/// Builds a planted problem: K responses generated from a few of M
/// regressors plus noise; everything roughly normalized. With rho > 0,
/// adjacent regressors correlate at about rho (an AR(1) walk over rows).
Planted make_planted(std::size_t m, std::size_t k, std::size_t n,
                     std::vector<std::size_t> support, double noise,
                     std::uint64_t seed, double rho = 0.0) {
  vmap::Rng rng(seed);
  Planted p;
  p.support = std::move(support);
  p.z = linalg::Matrix(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) p.z(r, c) = rng.normal();
  for (std::size_t r = 1; rho > 0.0 && r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      p.z(r, c) = rho * p.z(r - 1, c) + std::sqrt(1.0 - rho * rho) * p.z(r, c);
  linalg::Matrix beta(k, m);
  for (std::size_t s : p.support)
    for (std::size_t kk = 0; kk < k; ++kk)
      beta(kk, s) = rng.uniform(0.5, 1.5) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  p.g = linalg::matmul(beta, p.z);
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t c = 0; c < n; ++c) p.g(kk, c) += noise * rng.normal();
  return p;
}

/// Maximum KKT violation of a penalized GL solution.
double kkt_violation(const GroupLassoProblem& problem,
                     const GroupLassoResult& result, double mu) {
  // gradient of the smooth part: β A − B.
  linalg::Matrix grad = linalg::matmul(result.beta, problem.gram);
  grad -= problem.cross;
  double worst = 0.0;
  for (std::size_t m = 0; m < problem.num_groups(); ++m) {
    const double norm = result.group_norms[m];
    if (norm > 1e-10) {
      // Active group: grad_m + mu * beta_m / ||beta_m|| = 0.
      double acc = 0.0;
      for (std::size_t k = 0; k < grad.rows(); ++k) {
        const double v = grad(k, m) + mu * result.beta(k, m) / norm;
        acc += v * v;
      }
      worst = std::max(worst, std::sqrt(acc));
    } else {
      // Zero group: ||grad_m|| <= mu.
      double acc = 0.0;
      for (std::size_t k = 0; k < grad.rows(); ++k)
        acc += grad(k, m) * grad(k, m);
      worst = std::max(worst, std::max(0.0, std::sqrt(acc) - mu));
    }
  }
  return worst;
}

/// A grid-like design: M candidates along a line sample one smooth voltage
/// field driven by `sources` random sources (Gaussian kernels `width`
/// candidates wide), plus a little sensor noise; K responses sample the same
/// field at random positions. Adjacent candidates correlate like adjacent
/// grid nodes.
Planted make_field(std::size_t m, std::size_t k, std::size_t n,
                   std::size_t sources, double width, double noise,
                   std::uint64_t seed) {
  vmap::Rng rng(seed);
  linalg::Matrix amplitude(sources, n);
  for (std::size_t j = 0; j < sources; ++j)
    for (std::size_t c = 0; c < n; ++c) amplitude(j, c) = rng.normal();
  std::vector<double> where(sources);
  for (double& x : where) x = rng.uniform(0.0, static_cast<double>(m));
  auto field = [&](double x, std::size_t c) {
    double v = 0.0;
    for (std::size_t j = 0; j < sources; ++j) {
      const double d = (x - where[j]) / width;
      v += std::exp(-0.5 * d * d) * amplitude(j, c);
    }
    return v;
  };
  Planted p;
  p.z = linalg::Matrix(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      p.z(r, c) = field(static_cast<double>(r), c) + noise * rng.normal();
  p.g = linalg::Matrix(k, n);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double y = rng.uniform(0.0, static_cast<double>(m));
    for (std::size_t c = 0; c < n; ++c)
      p.g(kk, c) = field(y, c) + noise * rng.normal();
  }
  return p;
}

TEST(GroupLassoProblem, GramIsScaledCorrelationLike) {
  const Planted p = make_planted(6, 3, 500, {1}, 0.1, 1);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  EXPECT_EQ(problem.num_groups(), 6u);
  EXPECT_EQ(problem.num_responses(), 3u);
  // Standard-normal regressors: diagonal of A = ZZᵀ/N ≈ 1.
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(problem.gram(i, i), 1.0, 0.2);
}

TEST(GroupLasso, MuMaxGivesZeroSolution) {
  const Planted p = make_planted(8, 4, 300, {2, 5}, 0.05, 2);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const double mu_max = solver.mu_max();
  const auto result = solver.solve_penalized(mu_max * 1.0001);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.budget, 0.0, 1e-9);
}

TEST(GroupLasso, JustBelowMuMaxActivatesSomething) {
  const Planted p = make_planted(8, 4, 300, {2, 5}, 0.05, 3);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const auto result = solver.solve_penalized(solver.mu_max() * 0.9);
  EXPECT_GT(result.budget, 0.0);
}

class GlSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GlSizes, BcdSatisfiesKkt) {
  const std::size_t m = GetParam();
  const Planted p = make_planted(m, 5, 400, {0, m / 2}, 0.1, 100 + m);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  GroupLasso solver(problem);
  const double mu = solver.mu_max() * 0.3;
  const auto result = solver.solve_penalized(mu);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(kkt_violation(problem, result, mu), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, GlSizes,
                         ::testing::Values(4, 8, 16, 32));

/// The group soft threshold β_m = (B_m / A_mm) · max(0, 1 − μ/‖B_m‖): the
/// penalized optimum when the Gram A is diagonal.
linalg::Matrix group_soft_threshold(const GroupLassoProblem& problem,
                                    double mu) {
  linalg::Matrix beta(problem.num_responses(), problem.num_groups());
  for (std::size_t m = 0; m < problem.num_groups(); ++m) {
    const double shrink =
        std::max(0.0, 1.0 - mu / problem.cross.col(m).norm2());
    for (std::size_t k = 0; k < beta.rows(); ++k)
      beta(k, m) = problem.cross(k, m) / problem.gram(m, m) * shrink;
  }
  return beta;
}

TEST(GroupLasso, MatchesGroupSoftThresholdOnOrthogonalDesign) {
  // Rows of Z with disjoint sample supports make A = ZZᵀ/N exactly
  // diagonal, so the problem separates by group and the closed form above
  // is the exact optimum. A different scale per row makes the A_mm differ.
  constexpr std::size_t kGroups = 8, kResponses = 5, kSamples = 800;
  vmap::Rng rng(31);
  linalg::Matrix z(kGroups, kSamples), g(kResponses, kSamples);
  for (std::size_t c = 0; c < kSamples; ++c) {
    const std::size_t m = c % kGroups;
    z(m, c) = (1.0 + 0.5 * static_cast<double>(m)) * rng.normal();
  }
  for (std::size_t k = 0; k < kResponses; ++k)
    for (std::size_t c = 0; c < kSamples; ++c) g(k, c) = rng.normal();
  const auto problem = GroupLassoProblem::from_data(z, g);
  for (std::size_t i = 0; i < kGroups; ++i)
    for (std::size_t j = 0; j < kGroups; ++j)
      if (i != j) {
        ASSERT_EQ(problem.gram(i, j), 0.0) << i << ", " << j;
      }

  GroupLasso solver(problem);
  const auto expect_closed_form = [&](const GroupLassoResult& result,
                                      double mu) {
    const linalg::Matrix want = group_soft_threshold(problem, mu);
    for (std::size_t k = 0; k < kResponses; ++k)
      for (std::size_t m = 0; m < kGroups; ++m)
        EXPECT_NEAR(result.beta(k, m), want(k, m), 1e-12)
            << "k=" << k << " m=" << m << " mu=" << mu;
  };
  for (double fraction : {0.8, 0.5, 0.2}) {
    const double mu = fraction * solver.mu_max();
    const auto result = solver.solve_penalized(mu);
    ASSERT_TRUE(result.converged);
    expect_closed_form(result, mu);
  }

  // Budget: ‖β_m‖ = max(0, ‖B_m‖ − μ) / A_mm, so at μ₀ strictly between the
  // 3rd and 4th largest ‖B_m‖ exactly three groups are active, and λ below
  // is their budget.
  std::vector<double> norms(kGroups);
  for (std::size_t m = 0; m < kGroups; ++m)
    norms[m] = problem.cross.col(m).norm2();
  std::vector<double> sorted = norms;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  ASSERT_GT(sorted[2], sorted[3]);
  const double mu0 = 0.5 * (sorted[2] + sorted[3]);
  double lambda = 0.0;
  std::vector<std::size_t> expected;
  for (std::size_t m = 0; m < kGroups; ++m) {
    if (norms[m] <= mu0) continue;
    lambda += (norms[m] - mu0) / problem.gram(m, m);
    expected.push_back(m);
  }
  ASSERT_EQ(expected.size(), 3u);
  const auto result = solver.solve_budget(lambda);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.active_groups(0.0), expected);
  EXPECT_LE(result.budget, lambda);
  EXPECT_GE(result.budget, lambda * (1.0 - solver.options().budget_slack));
  expect_closed_form(result, result.penalty_weight);
}

TEST(GroupLasso, RecoversPlantedSupport) {
  const std::vector<std::size_t> support{3, 9, 14};
  const Planted p = make_planted(20, 6, 800, support, 0.05, 5);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const auto result = solver.solve_penalized(solver.mu_max() * 0.15);
  EXPECT_TRUE(result.converged);
  const auto active = result.active_groups(1e-3);
  EXPECT_EQ(active, support);
}

TEST(GroupLasso, SelectedAndRejectedNormsAreWellSeparated) {
  // The paper's Fig. 1 gap: active group norms dwarf inactive ones.
  const Planted p = make_planted(20, 6, 800, {2, 11}, 0.05, 6);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const auto result = solver.solve_penalized(solver.mu_max() * 0.2);
  double min_active = 1e300, max_inactive = 0.0;
  for (std::size_t m = 0; m < 20; ++m) {
    if (m == 2 || m == 11)
      min_active = std::min(min_active, result.group_norms[m]);
    else
      max_inactive = std::max(max_inactive, result.group_norms[m]);
  }
  EXPECT_GT(min_active, 100.0 * std::max(max_inactive, 1e-12));
}

TEST(GroupLasso, PenaltyPathIsMonotoneInBudget) {
  // Budget Σ||β_m||₂ is non-increasing in μ, i.e. it grows as the penalty
  // weight shrinks along the path below.
  const Planted p = make_planted(15, 5, 600, {0, 4, 8}, 0.1, 7);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const double mu_max = solver.mu_max();
  double previous_budget = 0.0;
  for (double f : {0.8, 0.4, 0.2, 0.1, 0.05}) {
    const auto result = solver.solve_penalized(mu_max * f);
    EXPECT_GE(result.budget, previous_budget - 1e-9);
    previous_budget = result.budget;
  }
}

TEST(GroupLasso, BudgetSolutionIsFeasibleAndTight) {
  const Planted p = make_planted(15, 5, 600, {0, 4, 8}, 0.1, 8);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  // Pick a budget clearly below the unconstrained optimum's budget.
  const auto loose = solver.solve_penalized(solver.mu_max() * 1e-6);
  const double lambda = 0.5 * loose.budget;
  const auto result = solver.solve_budget(lambda);
  EXPECT_LE(result.budget, lambda * (1.0 + 1e-9));
  EXPECT_GT(result.budget, lambda * 0.9);  // tight, not trivially feasible
}

TEST(GroupLasso, HugeBudgetReturnsUnconstrainedSolution) {
  const Planted p = make_planted(10, 3, 400, {1, 5}, 0.1, 9);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const auto result = solver.solve_budget(1e6);
  const auto unconstrained = solver.solve_penalized(solver.mu_max() * 1e-6);
  // Both are approximations of the μ→0 limit; compare loosely.
  EXPECT_NEAR(result.budget, unconstrained.budget, 1e-3 * (1 + result.budget));
}

TEST(GroupLasso, LargerBudgetSelectsMoreSensors) {
  // Table 1's trend: λ up → more selected sensors (weak monotonicity).
  const Planted p = make_planted(24, 8, 800, {1, 5, 9, 13, 17, 21}, 0.2, 10);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  std::size_t previous = 0;
  for (double lambda : {0.3, 1.0, 3.0, 10.0}) {
    const auto result = solver.solve_budget(lambda);
    const std::size_t count = result.active_groups(1e-3).size();
    EXPECT_GE(count + 1, previous);  // allow one-off ties
    previous = std::max(previous, count);
  }
}

TEST(GroupLasso, WarmStartReachesSameSolution) {
  const Planted p = make_planted(12, 4, 400, {2, 6}, 0.1, 11);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const double mu = solver.mu_max() * 0.25;
  const auto cold = solver.solve_penalized(mu);
  const auto other = solver.solve_penalized(solver.mu_max() * 0.5);
  const auto warm = solver.solve_penalized(mu, other.beta);
  EXPECT_NEAR(cold.objective, warm.objective, 1e-8);
}

TEST(GroupLasso, SmoothObjectiveMatchesDirectResidual) {
  const Planted p = make_planted(6, 3, 200, {1}, 0.2, 12);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  GroupLasso solver(problem);
  const auto result = solver.solve_penalized(solver.mu_max() * 0.3);
  // Direct: ½||G − βZ||²/N.
  linalg::Matrix residual = linalg::matmul(result.beta, p.z);
  residual -= p.g;
  const double direct = 0.5 * residual.norm_frobenius_squared() /
                        static_cast<double>(p.z.cols());
  EXPECT_NEAR(solver.smooth_objective(result.beta), direct, 1e-9);
}

TEST(GroupLasso, DegenerateGroupIsNeverSelected) {
  Planted p = make_planted(8, 3, 300, {1}, 0.1, 13);
  for (std::size_t c = 0; c < p.z.cols(); ++c) p.z(4, c) = 0.0;  // dead row
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const auto result = solver.solve_penalized(solver.mu_max() * 0.1);
  EXPECT_DOUBLE_EQ(result.group_norms[4], 0.0);
}

TEST(GroupLasso, ShrinkageBiasOfSectionTwoThree) {
  // Paper §2.3's example: g1 = g2 = z1. With budget λ = 1 only sensor 1 is
  // selected, but its coefficients are forced to satisfy
  // sqrt(β² + β²) <= 1, i.e. β ≈ 0.707 instead of the optimal 1.0 — the
  // bias that motivates the OLS refit.
  vmap::Rng rng(14);
  const std::size_t n = 2000;
  linalg::Matrix z(2, n);
  for (std::size_t c = 0; c < n; ++c) {
    z(0, c) = rng.normal();
    z(1, c) = rng.normal();
  }
  linalg::Matrix g(2, n);
  for (std::size_t c = 0; c < n; ++c) {
    g(0, c) = z(0, c);
    g(1, c) = z(0, c);
  }
  GroupLasso solver(GroupLassoProblem::from_data(z, g));
  const auto result = solver.solve_budget(1.0);
  const auto active = result.active_groups(1e-3);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], 0u);
  // Budget 1 forces ||β_1||₂ ≈ 1, so each coefficient ≈ 1/√2 — clearly
  // below the true value 1.0.
  EXPECT_NEAR(result.group_norms[0], 1.0, 0.05);
  EXPECT_NEAR(result.beta(0, 0), 1.0 / std::sqrt(2.0), 0.05);
  EXPECT_LT(result.beta(0, 0), 0.9);
}

TEST(GroupLasso, RejectsInvalidArguments) {
  const Planted p = make_planted(4, 2, 100, {0}, 0.1, 15);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  EXPECT_THROW(solver.solve_penalized(-1.0), vmap::ContractError);
  EXPECT_THROW(solver.solve_budget(0.0), vmap::ContractError);
  EXPECT_THROW(solver.solve_penalized(1.0, linalg::Matrix(1, 1)),
               vmap::ContractError);
}

TEST(GroupLasso, DualityGapIsACertificate) {
  // Recompute the primal–dual gap from Z and G themselves, not from the
  // Gram statistics the solver uses: θ = s·R with R = G − βZ is dual
  // feasible once s = min(1, μ / max_m ||R Z_mᵀ||/N).
  const Planted p = make_planted(16, 5, 400, {3, 11}, 0.1, 16);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  GroupLasso solver(problem);
  const double mu = solver.mu_max() * 0.2;
  const auto result = solver.solve_penalized(mu);
  ASSERT_TRUE(result.converged);

  const double n = static_cast<double>(p.z.cols());
  linalg::Matrix residual = p.g;
  residual -= linalg::matmul(result.beta, p.z);
  const linalg::Matrix corr = linalg::matmul_a_bt(residual, p.z);
  double worst = 0.0, penalty = 0.0, g_dot_r = 0.0;
  for (std::size_t m = 0; m < corr.cols(); ++m) {
    worst = std::max(worst, corr.col(m).norm2() / n);
    penalty += result.beta.col(m).norm2();
  }
  for (std::size_t k = 0; k < p.g.rows(); ++k)
    for (std::size_t c = 0; c < p.g.cols(); ++c)
      g_dot_r += p.g(k, c) * residual(k, c);
  const double s = std::min(1.0, mu / worst);
  const double smooth = 0.5 * residual.norm_frobenius_squared() / n;
  const double primal = smooth + mu * penalty;
  const double dual = s * g_dot_r / n - s * s * smooth;
  const double gap = (primal - dual) / primal;

  EXPECT_NEAR(gap, result.duality_gap, 1e-9);
  EXPECT_GE(gap, 0.0);
  EXPECT_LE(gap, solver.options().tolerance);
  // And it bounds the true suboptimality.
  GroupLassoOptions tight;
  tight.tolerance = 1e-13;
  const auto reference = GroupLasso(problem, tight).solve_penalized(mu);
  EXPECT_LE(result.objective - reference.objective,
            result.duality_gap * result.objective + 1e-12);
}

TEST(GroupLasso, BcdCertifiesStronglyCorrelatedDesign) {
  // Adjacent candidates correlate at >= 0.99, as adjacent grid nodes do.
  // Plain BCD crawls on such designs: a group-change stop rule at 1e-6 is
  // still unmet after 8000 sweeps here. The gap certificate must stop it
  // at a genuine optimum.
  const Planted p = make_field(40, 20, 400, 8, 8.0, 0.02, 2);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  for (std::size_t i = 0; i + 1 < problem.num_groups(); ++i) {
    const double corr =
        problem.gram(i, i + 1) /
        std::sqrt(problem.gram(i, i) * problem.gram(i + 1, i + 1));
    ASSERT_GE(corr, 0.99) << "candidates " << i << ", " << i + 1;
  }
  GroupLasso solver(problem);
  const double mu = solver.mu_max() * 0.02;
  const auto result = solver.solve_penalized(mu);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.duality_gap, solver.options().tolerance);
  EXPECT_LT(kkt_violation(problem, result, mu), 1e-5);
}

TEST(GroupLasso, WrongFirstWorkingSetStillCertifies) {
  // Working-set solves stop at a fraction of the outer gap, so a wrong
  // working set is never solved to the end. Warm starts whose nonzero
  // groups are too few (the solution at 10μ) or all of them (a dense
  // random β) must still end certified on the tightly solved selection.
  const Planted p = make_field(40, 20, 400, 8, 8.0, 0.02, 2);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  GroupLasso solver(problem);
  const double mu = solver.mu_max() * 0.02;
  GroupLassoOptions tight;
  tight.tolerance = 1e-13;
  const auto reference = GroupLasso(problem, tight).solve_penalized(mu);
  ASSERT_TRUE(reference.converged);

  const auto sparse = solver.solve_penalized(10.0 * mu);
  ASSERT_LT(sparse.active_groups(1e-3).size(),
            reference.active_groups(1e-3).size());
  linalg::Matrix dense(problem.num_responses(), problem.num_groups());
  vmap::Rng rng(3);
  for (std::size_t k = 0; k < dense.rows(); ++k)
    for (std::size_t m = 0; m < dense.cols(); ++m) dense(k, m) = rng.normal();
  const std::pair<const char*, linalg::Matrix> starts[] = {
      {"10x mu", sparse.beta}, {"dense random", dense}};
  for (const auto& [name, warm] : starts) {
    const auto result = solver.solve_penalized(mu, warm);
    EXPECT_TRUE(result.converged) << name;
    EXPECT_LE(result.duality_gap, solver.options().tolerance) << name;
    EXPECT_LT(kkt_violation(problem, result, mu), 1e-5) << name;
    EXPECT_EQ(result.active_groups(1e-3), reference.active_groups(1e-3))
        << name;
  }
}

TEST(GroupLasso, CandidateOrderDoesNotChangeTheSelection) {
  // Metamorphic: permuting the candidates permutes the group norms and
  // leaves the selected set unchanged.
  const Planted p = make_field(30, 10, 400, 6, 5.0, 0.05, 21);
  std::vector<std::size_t> perm(p.z.rows());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  vmap::Rng(22).shuffle(perm);
  const linalg::Matrix z_perm = p.z.select_rows(perm);  // row i = z[perm[i]]

  const double lambda = 3.0;
  const auto base =
      GroupLasso(GroupLassoProblem::from_data(p.z, p.g)).solve_budget(lambda);
  const auto permuted =
      GroupLasso(GroupLassoProblem::from_data(z_perm, p.g))
          .solve_budget(lambda);
  ASSERT_TRUE(base.converged);
  ASSERT_TRUE(permuted.converged);
  for (std::size_t i = 0; i < perm.size(); ++i)
    EXPECT_NEAR(permuted.group_norms[i], base.group_norms[perm[i]], 1e-3)
        << "candidate " << perm[i];
  std::vector<std::size_t> mapped;
  for (std::size_t i : permuted.active_groups(1e-3)) mapped.push_back(perm[i]);
  std::sort(mapped.begin(), mapped.end());
  EXPECT_FALSE(mapped.empty());
  EXPECT_EQ(mapped, base.active_groups(1e-3));
}

TEST(GroupLasso, BudgetSearchLandsInsideTheSlackQuickly) {
  const Planted p = make_field(30, 10, 400, 6, 5.0, 0.05, 23);
  GroupLassoOptions options;
  options.budget_bisections = 10;
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g), options);
  metrics::Counter& solves = metrics::counter("gl.penalized_solves");
  for (double lambda : {0.5, 2.0, 4.0}) {
    const std::uint64_t before = solves.value();
    const auto result = solver.solve_budget(lambda);
    const std::uint64_t used = solves.value() - before;
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.budget, lambda);
    EXPECT_GE(result.budget, lambda * (1.0 - options.budget_slack));
    EXPECT_LT(used, options.budget_bisections) << "lambda " << lambda;
  }
}

/// Every kernel dispatch level this CPU runs. A level it lacks is left out
/// with a line naming it, so a test log shows what ran.
std::vector<linalg::kern::SimdLevel> host_levels() {
  using linalg::kern::SimdLevel;
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= linalg::kern::max_simd_level())
      levels.push_back(level);
    else
      std::cout << "[ SKIPPED  ] SIMD level "
                << linalg::kern::simd_level_name(level)
                << ": this CPU lacks it\n";
  }
  return levels;
}

/// A budget solve and the penalized solves and sweeps it took.
struct BudgetRun {
  GroupLassoResult result;
  std::uint64_t solves = 0;
  std::uint64_t sweeps = 0;
};

BudgetRun run_budget(const GroupLasso& solver, double lambda) {
  metrics::Counter& solves = metrics::counter("gl.penalized_solves");
  metrics::Counter& sweeps = metrics::counter("gl.sweeps");
  const std::uint64_t solves0 = solves.value(), sweeps0 = sweeps.value();
  BudgetRun run{solver.solve_budget(lambda)};
  run.solves = solves.value() - solves0;
  run.sweeps = sweeps.value() - sweeps0;
  return run;
}

bool same_bytes(const double* x, const double* y, std::size_t n) {
  return n == 0 || std::memcmp(x, y, n * sizeof(double)) == 0;
}

TEST(GroupLasso, BudgetSolveIsBitIdenticalAtEverySimdLevel) {
  // Supports of 1–9, 21 and 33 groups, so the working sets along the μ
  // walk are narrower than one vector, fill whole vectors, and leave every
  // tail; K = 30 responses as in the Table-2 per-core fit. Adjacent
  // candidates correlate (ρ ≈ 0.9), so working-set solves run long enough
  // for Anderson extrapolation. Each level builds its own Gram and must
  // reproduce the scalar kernels' solve bit for bit.
  using linalg::kern::SimdLevel;
  const SimdLevel was = linalg::kern::simd_level();
  const std::vector<SimdLevel> levels = host_levels();
  for (std::size_t s : {1, 2, 3, 4, 5, 6, 7, 8, 9, 21, 33}) {
    std::vector<std::size_t> support(s);
    for (std::size_t i = 0; i < s; ++i) support[i] = 2 * i;
    const Planted p =
        make_planted(2 * s + 4, 30, 200, support, 0.1, 40 + s, 0.9);
    linalg::kern::set_simd_level(SimdLevel::kScalar);
    const GroupLasso scalar(GroupLassoProblem::from_data(p.z, p.g));
    const double lambda =
        0.6 * scalar.solve_penalized(1e-3 * scalar.mu_max()).budget;
    const BudgetRun want = run_budget(scalar, lambda);
    ASSERT_TRUE(want.result.converged) << "|S| = " << s;
    for (SimdLevel level : levels) {
      linalg::kern::set_simd_level(level);
      const std::string tag = "|S| = " + std::to_string(s) + " " +
                              linalg::kern::simd_level_name(level);
      const GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
      const BudgetRun got = run_budget(solver, lambda);
      const linalg::Matrix& beta = got.result.beta;
      ASSERT_EQ(beta.rows(), want.result.beta.rows()) << tag;
      ASSERT_EQ(beta.cols(), want.result.beta.cols()) << tag;
      EXPECT_TRUE(same_bytes(beta.data(), want.result.beta.data(),
                             beta.rows() * beta.cols()))
          << "beta " << tag;
      ASSERT_EQ(got.result.group_norms.size(),
                want.result.group_norms.size());
      EXPECT_TRUE(same_bytes(got.result.group_norms.data(),
                             want.result.group_norms.data(),
                             got.result.group_norms.size()))
          << "group norms " << tag;
      EXPECT_EQ(got.result.iterations, want.result.iterations) << tag;
      EXPECT_EQ(got.result.working_sets, want.result.working_sets) << tag;
      EXPECT_EQ(got.solves, want.solves) << "penalized solves " << tag;
      EXPECT_EQ(got.sweeps, want.sweeps) << "sweeps " << tag;
    }
  }
  linalg::kern::set_simd_level(was);
}

TEST(GroupLassoProblem, RowListedTilesMatchWholeMatrixProducts) {
  // from_rows z-scores the listed rows one column tile at a time and never
  // forms Z or G; from_data reads a given Z and G through the same tiles.
  // Both must equal the whole-matrix products of explicitly normalized Z
  // and G byte for byte: A = matmul_a_at(Z)/N, B = matmul_a_bt(G, Z)/N and
  // ||G||²_F/N. N = 2.5 tiles leaves a partial last tile, 23 candidates
  // leave 3 tail columns past the 4-wide panels, one listed candidate row
  // is constant (degenerate, so z = 0), and the rows are listed out of
  // order with a repeat.
  using linalg::kern::SimdLevel;
  const SimdLevel was = linalg::kern::simd_level();
  const std::size_t n = 2 * linalg::kGramTile + linalg::kGramTile / 2 + 3;
  vmap::Rng rng(77);
  linalg::Matrix x(30, n), f(12, n);
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < n; ++c)
      x(r, c) = r == 7 ? 0.93 : rng.normal(0.9, 0.02);
  for (std::size_t r = 0; r < f.rows(); ++r)
    for (std::size_t c = 0; c < n; ++c) f(r, c) = rng.normal(0.85, 0.03);
  const std::vector<std::size_t> x_rows = {29, 3, 7,  0,  11, 12, 5,  6,
                                           8,  9, 10, 1,  2,  13, 14, 15,
                                           16, 4, 20, 21, 22, 23, 3};
  const std::vector<std::size_t> f_rows = {11, 0, 4, 5, 6, 1, 2, 9, 0};
  const Normalizer x_norm(x, x_rows), f_norm(f, f_rows);
  ASSERT_TRUE(x_norm.is_degenerate(2));
  const linalg::Matrix z = x_norm.normalize(x, x_rows);
  const linalg::Matrix g = f_norm.normalize(f, f_rows);
  for (SimdLevel level : host_levels()) {
    linalg::kern::set_simd_level(level);
    const std::string tag = linalg::kern::simd_level_name(level);
    const double inv_n = 1.0 / static_cast<double>(n);
    linalg::Matrix gram = linalg::matmul_a_at(z);
    gram *= inv_n;
    linalg::Matrix cross = linalg::matmul_a_bt(g, z);
    cross *= inv_n;
    const double g_norm_sq = g.norm_frobenius_squared() * inv_n;
    const GroupLassoProblem tiled[] = {
        GroupLassoProblem::from_rows(x, x_rows, x_norm, f, f_rows, f_norm),
        GroupLassoProblem::from_data(z, g)};
    for (const GroupLassoProblem& p : tiled) {
      ASSERT_EQ(p.gram.rows(), x_rows.size()) << tag;
      ASSERT_EQ(p.cross.rows(), f_rows.size()) << tag;
      EXPECT_TRUE(same_bytes(p.gram.data(), gram.data(),
                             gram.rows() * gram.cols()))
          << "A " << tag;
      EXPECT_TRUE(same_bytes(p.cross.data(), cross.data(),
                             cross.rows() * cross.cols()))
          << "B " << tag;
      EXPECT_TRUE(same_bytes(&p.g_norm_sq, &g_norm_sq, 1)) << "||G||² " << tag;
      EXPECT_EQ(p.samples, n);
    }
  }
  linalg::kern::set_simd_level(was);
}

TEST(GroupLasso, MismatchedDataRejected) {
  linalg::Matrix z(3, 10), g(2, 11);
  EXPECT_THROW(GroupLassoProblem::from_data(z, g), vmap::ContractError);
  const Normalizer z_norm(z), g_norm(g);
  const std::vector<std::size_t> z_rows = {0, 1, 2}, g_rows = {0, 1};
  EXPECT_THROW(
      GroupLassoProblem::from_rows(z, z_rows, z_norm, g, g_rows, g_norm),
      vmap::ContractError);
  EXPECT_THROW(GroupLassoProblem::from_rows(z, {0, 1}, z_norm, z, z_rows,
                                            z_norm),
               vmap::ContractError);
}

}  // namespace
}  // namespace vmap::core
