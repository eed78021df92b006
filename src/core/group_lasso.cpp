#include "core/group_lasso.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace vmap::core {

namespace {

/// The tiled Gram pair of `write`'s M x N Z and K x N G, with ||G||²_F
/// given as `g_sum_sq`, all scaled by 1/N so the Gram entries are O(1)
/// correlations; the constrained solution path is invariant to this
/// uniform objective scaling.
GroupLassoProblem from_tiles(std::size_t m, std::size_t k, std::size_t n,
                             const linalg::TileWriter& write,
                             double g_sum_sq) {
  VMAP_REQUIRE(n >= 2, "need at least two samples");
  GroupLassoProblem p;
  p.samples = n;
  const double inv_n = 1.0 / static_cast<double>(n);
  linalg::GramPair pair = linalg::tiled_gram(m, k, n, write);
  p.gram = std::move(pair.zzt);
  p.gram *= inv_n;
  p.cross = std::move(pair.gzt);
  p.cross *= inv_n;
  p.g_norm_sq = g_sum_sq * inv_n;
  return p;
}

}  // namespace

GroupLassoProblem GroupLassoProblem::from_data(const linalg::Matrix& z,
                                               const linalg::Matrix& g) {
  VMAP_REQUIRE(z.cols() == g.cols(), "Z and G must share the sample axis");
  const auto copy_tile = [](const linalg::Matrix& a, std::size_t c0,
                            std::size_t c1, double* out) {
    for (std::size_t i = 0; i < a.rows(); ++i)
      std::copy(a.row_data(i) + c0, a.row_data(i) + c1, out + i * (c1 - c0));
  };
  return from_tiles(
      z.rows(), g.rows(), z.cols(),
      [&](std::size_t c0, std::size_t c1, double* zt, double* gt) {
        copy_tile(z, c0, c1, zt);
        copy_tile(g, c0, c1, gt);
      },
      g.norm_frobenius_squared());
}

GroupLassoProblem GroupLassoProblem::from_rows(
    const linalg::Matrix& x, const std::vector<std::size_t>& x_rows,
    const Normalizer& x_norm, const linalg::Matrix& f,
    const std::vector<std::size_t>& f_rows, const Normalizer& f_norm) {
  VMAP_REQUIRE(x.cols() == f.cols(), "X and F must share the sample axis");
  VMAP_REQUIRE(x_rows.size() == x_norm.variables() &&
                   f_rows.size() == f_norm.variables(),
               "variable count mismatch");
  const std::size_t n = x.cols();
  // ||G||²_F as one chain over G's rows in order, as from_data takes it.
  double g_sum_sq = 0.0;
  std::vector<double> row(n);
  for (std::size_t r = 0; r < f_rows.size(); ++r) {
    f_norm.normalize_row(f, f_rows[r], r, 0, n, row.data());
    for (double v : row) g_sum_sq += v * v;
  }
  return from_tiles(
      x_rows.size(), f_rows.size(), n,
      [&](std::size_t c0, std::size_t c1, double* zt, double* gt) {
        const std::size_t w = c1 - c0;
        for (std::size_t i = 0; i < x_rows.size(); ++i)
          x_norm.normalize_row(x, x_rows[i], i, c0, c1, zt + i * w);
        for (std::size_t r = 0; r < f_rows.size(); ++r)
          f_norm.normalize_row(f, f_rows[r], r, c0, c1, gt + r * w);
      },
      g_sum_sq);
}

std::vector<std::size_t> GroupLassoResult::active_groups(
    double threshold) const {
  std::vector<std::size_t> active;
  for (std::size_t m = 0; m < group_norms.size(); ++m)
    if (group_norms[m] > threshold) active.push_back(m);
  return active;
}

GroupLasso::GroupLasso(GroupLassoProblem problem, GroupLassoOptions options)
    : problem_(std::move(problem)), options_(options) {
  VMAP_REQUIRE(problem_.gram.rows() == problem_.gram.cols(),
               "Gram matrix must be square");
  VMAP_REQUIRE(problem_.cross.cols() == problem_.gram.rows(),
               "cross matrix column count must match group count");
  VMAP_REQUIRE(options_.tolerance > 0.0, "tolerance must be positive");
  VMAP_REQUIRE(options_.max_iterations > 0, "need at least one iteration");
}

double GroupLasso::mu_max() const {
  const std::size_t m_count = problem_.num_groups();
  double mx = 0.0;
  for (std::size_t m = 0; m < m_count; ++m)
    mx = std::max(mx, problem_.cross.col(m).norm2());
  return mx;
}

namespace {

/// Sweep iterates kept for one Anderson extrapolation (Bertrand & Massias,
/// AISTATS 2021): every kAndersonDepth + 1 working-set sweeps are combined.
/// Depth 5 is the difference-Gram kernel's fixed depth.
constexpr std::size_t kAndersonDepth = linalg::kern::kDiffGramDepth;

/// A working-set solve stops once its restricted gap is within this
/// fraction of the full problem's gap at the start of the outer iteration
/// (Massias, Gramfort & Salmon, "Celer: a fast solver for the Lasso with
/// dual extrapolation", ICML 2018): solving a working set the next full
/// sweep still changes to the final tolerance is wasted work. 0.3 took the
/// fewest sweeps of 0.1, 0.2, 0.3, 0.5 and 0.7 on the Table-2 fit.
constexpr double kInnerGapFraction = 0.3;

/// Primal value and relative duality gap of the penalized problem at β,
/// computed from the maintained product P = βA (Ndiaye et al., JMLR 2017).
/// The dual point is the residual G − βZ scaled into the dual feasible set,
///   s = min(1, μ / max_m ||B_m − P_m||₂),
/// so with smooth = ½(g² − 2⟨β,B⟩ + ⟨β,P⟩):
///   primal = smooth + μ Σ||β_m||₂,   dual = s(g² − ⟨β,B⟩) − s²·smooth.
/// The same formula serves the full problem and a gathered working-set
/// block, whose max runs over the block's groups only.
struct Certificate {
  double primal = 0.0;
  /// (primal − dual) / primal; +inf when anything is non-finite, so a
  /// broken iterate can never pass as certified.
  double gap = 0.0;
};

Certificate certify(const linalg::Matrix& beta, const linalg::Matrix& b,
                    const linalg::Matrix& p, double g_norm_sq, double mu,
                    std::vector<double>& column_sums) {
  const std::size_t k_count = beta.rows();
  const std::size_t m_count = beta.cols();
  column_sums.assign(2 * m_count, 0.0);
  double* norm_sq = column_sums.data();       // ||β_m||²
  double* corr_sq = norm_sq + m_count;        // ||B_m − P_m||²
  double lin = 0.0, quad = 0.0;
  for (std::size_t k = 0; k < k_count; ++k) {
    const double* brow = beta.row_data(k);
    const double* crow = b.row_data(k);
    const double* prow = p.row_data(k);
    for (std::size_t m = 0; m < m_count; ++m) {
      const double corr = crow[m] - prow[m];
      lin += brow[m] * crow[m];
      quad += brow[m] * prow[m];
      norm_sq[m] += brow[m] * brow[m];
      corr_sq[m] += corr * corr;
    }
  }
  double penalty = 0.0, worst_sq = 0.0, corr_total = 0.0;
  for (std::size_t m = 0; m < m_count; ++m) {
    penalty += std::sqrt(norm_sq[m]);
    worst_sq = std::max(worst_sq, corr_sq[m]);
    corr_total += corr_sq[m];  // carries a NaN that max() would drop
  }
  const double smooth = 0.5 * (g_norm_sq - 2.0 * lin + quad);
  const double worst = std::sqrt(worst_sq);
  const double s = worst > mu ? mu / worst : 1.0;
  Certificate cert;
  cert.primal = smooth + mu * penalty;
  const double gap = cert.primal - (s * (g_norm_sq - lin) - s * s * smooth);
  cert.gap = std::isfinite(gap) && std::isfinite(corr_total)
                 ? std::max(gap, 0.0) /
                       std::max(cert.primal,
                                std::numeric_limits<double>::min())
                 : std::numeric_limits<double>::infinity();
  return cert;
}

/// Exact minimization over group m of the block (A, B), keeping P = βA
/// current. `r` is K-long scratch. Returns false when the group's residual
/// correlation is non-finite: the iterate has blown up.
bool update_group(const linalg::Matrix& a, const linalg::Matrix& b,
                  linalg::Matrix& beta, linalg::Matrix& p, std::size_t m,
                  double mu, double* r) {
  const double amm = a(m, m);
  if (amm <= 0.0) return true;  // degenerate (zero-variance) candidate
  const std::size_t k_count = beta.rows();
  // r = B_m − P_m + β_m·A_mm : the group's residual correlation.
  double r_norm_sq = 0.0;
  for (std::size_t k = 0; k < k_count; ++k) {
    r[k] = b(k, m) - p(k, m) + beta(k, m) * amm;
    r_norm_sq += r[k] * r[k];
  }
  if (!std::isfinite(r_norm_sq)) return false;
  // Group soft threshold, then scale by 1/A_mm. r turns into the deltas,
  // and every row k with δ_k ≠ 0 then takes P_k += δ_k·A_m in one call.
  const double r_norm = std::sqrt(r_norm_sq);
  const double scale = r_norm <= mu ? 0.0 : (1.0 - mu / r_norm) / amm;
  for (std::size_t k = 0; k < k_count; ++k) {
    r[k] = scale * r[k] - beta(k, m);
    if (r[k] != 0.0) beta(k, m) += r[k];
  }
  linalg::kern::rank1_update(k_count, p.cols(), r, a.row_data(m), p.data(),
                             p.cols());
  return true;
}

/// One pass of exact group updates over every group of the block.
bool sweep(const linalg::Matrix& a, const linalg::Matrix& b,
           linalg::Matrix& beta, linalg::Matrix& p, double mu, double* r) {
  for (std::size_t m = 0; m < beta.cols(); ++m)
    if (!update_group(a, b, beta, p, m, mu, r)) return false;
  return true;
}

/// Anderson weights of the iterates xs[1..d] (d = xs.size() − 1): the
/// affine combination c (Σc = 1) minimizing ||Σ c_i (xs[i] − xs[i−1])||,
/// i.e. c = z / Σz with (UᵀU) z = 1 for the difference matrix U. Returns
/// false when UᵀU is numerically singular or the weights non-finite.
bool anderson_weights(const std::vector<linalg::Matrix>& xs, double* c) {
  constexpr std::size_t d = kAndersonDepth;
  const double* x[d + 1];
  for (std::size_t i = 0; i <= d; ++i) x[i] = xs[i].data();
  linalg::Matrix u(d, d);
  linalg::kern::diff_gram(xs[0].rows() * xs[0].cols(), x, u.data());
  const auto chol = linalg::Cholesky::try_factorize(u);
  if (!chol.ok()) return false;
  const linalg::Vector z = chol->solve(linalg::Vector(d, 1.0));
  double sum = 0.0;
  for (std::size_t i = 0; i < d; ++i) sum += z[i];
  if (!std::isfinite(sum) || sum == 0.0) return false;
  for (std::size_t i = 0; i < d; ++i) c[i] = z[i] / sum;
  return true;
}

/// out = Σ_i c_i xs[i + 1], the extrapolated point of anderson_weights.
void combine(const std::vector<linalg::Matrix>& xs, const double* c,
             linalg::Matrix& out) {
  out = xs[1];
  linalg::kern::scale(out.rows() * out.cols(), c[0], out.data());
  for (std::size_t i = 1; i < kAndersonDepth; ++i)
    linalg::kern::axpy(out.rows() * out.cols(), c[i], xs[i + 1].data(),
                       out.data());
}

}  // namespace

double GroupLasso::smooth_objective(const linalg::Matrix& beta) const {
  // ½||G − βZ||²/N = ½(g_norm_sq − 2 Σ β∘B + Σ β∘(βA)): the μ = 0 primal.
  std::vector<double> sums;
  return certify(beta, problem_.cross, linalg::matmul(beta, problem_.gram),
                 problem_.g_norm_sq, 0.0, sums)
      .primal;
}

void GroupLasso::finalize(GroupLassoResult& result, double mu) const {
  const std::size_t m_count = problem_.num_groups();
  result.penalty_weight = mu;
  result.group_norms = linalg::Vector(m_count);
  result.budget = 0.0;
  for (std::size_t m = 0; m < m_count; ++m) {
    const double norm = result.beta.col(m).norm2();
    result.group_norms[m] = norm;
    result.budget += norm;
  }
  std::vector<double> sums;
  const Certificate cert =
      certify(result.beta, problem_.cross,
              linalg::matmul(result.beta, problem_.gram), problem_.g_norm_sq,
              mu, sums);
  result.objective = cert.primal;
  result.duality_gap = cert.gap;
}

GroupLassoResult GroupLasso::solve_penalized(
    double mu, const std::optional<linalg::Matrix>& warm_start) const {
  VMAP_REQUIRE(mu >= 0.0, "penalty weight must be non-negative");
  if (warm_start) {
    VMAP_REQUIRE(warm_start->rows() == problem_.num_responses() &&
                     warm_start->cols() == problem_.num_groups(),
                 "warm start shape mismatch");
  }
  TraceSpan span("gl.solve_penalized");
  GroupLassoResult result = solve_bcd(mu, warm_start);
  static metrics::Counter& solves = metrics::counter("gl.penalized_solves");
  static metrics::Counter& sweeps = metrics::counter("gl.sweeps");
  static metrics::Counter& breakdowns = metrics::counter("gl.breakdowns");
  static metrics::Counter& cap_hits = metrics::counter("gl.cap_hits");
  static metrics::Counter& working_sets =
      metrics::counter("gl.working_sets");
  static metrics::Histogram& sweeps_per_solve = metrics::histogram(
      "gl.sweeps_per_solve", metrics::default_iteration_buckets());
  static metrics::Histogram& gaps = metrics::histogram("gl.duality_gap", [] {
    std::vector<double> bounds;  // 1e-12, 1e-11, …, 1
    for (int e = -12; e <= 0; ++e) bounds.push_back(std::pow(10.0, e));
    return bounds;
  }());
  solves.add();
  sweeps.add(result.iterations);
  working_sets.add(result.working_sets);
  sweeps_per_solve.observe(static_cast<double>(result.iterations));
  span.arg("mu", mu);
  span.arg("sweeps", static_cast<double>(result.iterations));
  span.arg("working_sets", static_cast<double>(result.working_sets));
  // On numerical breakdown the coefficients are garbage; leave the summary
  // fields zeroed rather than propagating NaN through them.
  if (!result.status.ok()) {
    breakdowns.add();
    result.penalty_weight = mu;
    return result;
  }
  finalize(result, mu);
  if (!result.converged) cap_hits.add();
  gaps.observe(result.duality_gap);
  span.arg("gap", result.duality_gap);
  return result;
}

GroupLassoResult GroupLasso::solve_bcd(
    double mu, const std::optional<linalg::Matrix>& warm) const {
  const std::size_t k_count = problem_.num_responses();
  const std::size_t m_count = problem_.num_groups();
  const linalg::Matrix& a = problem_.gram;
  const linalg::Matrix& b = problem_.cross;
  const double g_norm_sq = problem_.g_norm_sq;
  const std::size_t cap = options_.max_iterations;

  GroupLassoResult result;
  result.beta = warm ? *warm : linalg::Matrix(k_count, m_count);
  linalg::Matrix& beta = result.beta;
  std::vector<double> r(k_count), sums;
  auto breakdown = [&]() -> GroupLassoResult& {
    result.status = Status::Numerical(
        "non-finite iterate in group-lasso BCD (sweep " +
        std::to_string(result.iterations) + ", mu=" + std::to_string(mu) +
        ")");
    return result;
  };

  // Each outer iteration rebuilds P = βA and stops once the relative gap of
  // the full problem is within tolerance. Otherwise a full sweep picks the
  // working set S (the nonzero groups); A_SS, B_S, β_S and P_S are gathered
  // into contiguous blocks, so an inner group update costs K·|S| instead of
  // K·M; the inner sweeps, Anderson-extrapolated, run until the restricted
  // problem's gap is within max(tolerance, kInnerGapFraction × the full
  // gap); then β_S is scattered back. Only the full gap certifies.
  std::vector<std::size_t> active;
  std::vector<linalg::Matrix> xs(kAndersonDepth + 1), ps(kAndersonDepth + 1);
  linalg::Matrix beta_x, p_x;
  double weights[kAndersonDepth] = {};
  while (true) {
    linalg::Matrix p = linalg::matmul(beta, a);
    const Certificate full = certify(beta, b, p, g_norm_sq, mu, sums);
    if (!std::isfinite(full.gap)) return breakdown();
    if (full.gap <= options_.tolerance) {
      result.converged = true;
      break;
    }
    if (result.iterations >= cap) break;
    if (!sweep(a, b, beta, p, mu, r.data())) return breakdown();
    ++result.iterations;

    active.clear();
    for (std::size_t m = 0; m < m_count; ++m) {
      for (std::size_t k = 0; k < k_count; ++k) {
        if (beta(k, m) != 0.0) {
          active.push_back(m);
          break;
        }
      }
    }
    if (active.empty()) continue;
    ++result.working_sets;
    const double inner_tolerance =
        std::max(options_.tolerance, kInnerGapFraction * full.gap);
    const linalg::Matrix a_s = a.select_rows(active).select_cols(active);
    const linalg::Matrix b_s = b.select_cols(active);
    linalg::Matrix beta_s = beta.select_cols(active);
    linalg::Matrix p_s = p.select_cols(active);
    std::size_t window = 0;
    while (result.iterations < cap) {
      if (!sweep(a_s, b_s, beta_s, p_s, mu, r.data())) return breakdown();
      ++result.iterations;
      Certificate cert = certify(beta_s, b_s, p_s, g_norm_sq, mu, sums);
      // P is linear in β, so the extrapolated P_S is the same combination
      // of the stored P_S snapshots.
      xs[window] = beta_s;
      ps[window] = p_s;
      if (++window == kAndersonDepth + 1) {
        window = 0;
        if (anderson_weights(xs, weights)) {
          combine(xs, weights, beta_x);
          combine(ps, weights, p_x);
          const Certificate ext =
              certify(beta_x, b_s, p_x, g_norm_sq, mu, sums);
          if (std::isfinite(ext.primal) && ext.primal < cert.primal) {
            std::swap(beta_s, beta_x);
            std::swap(p_s, p_x);
            cert = ext;
          }
        }
      }
      if (!std::isfinite(cert.gap)) return breakdown();
      if (cert.gap <= inner_tolerance) break;
    }
    for (std::size_t j = 0; j < active.size(); ++j)
      for (std::size_t k = 0; k < k_count; ++k)
        beta(k, active[j]) = beta_s(k, j);
  }
  if (!result.converged) {
    VMAP_LOG(kInfo) << "group-lasso BCD hit the iteration cap (" << cap
                    << " sweeps) at mu=" << mu;
  }
  return result;
}

GroupLassoResult GroupLasso::solve_budget(double lambda) const {
  VMAP_REQUIRE(lambda > 0.0, "budget must be positive");
  TraceSpan span("gl.solve_budget");
  span.arg("lambda", lambda);
  metrics::counter("gl.budget_solves").add();
  const double hi_mu = mu_max();
  if (hi_mu == 0.0) {
    // B = 0: the zero solution is optimal for any budget.
    GroupLassoResult zero = solve_penalized(0.0);
    return zero;
  }

  // Walk μ down from μ_max (feasible: budget 0) with warm starts until the
  // budget exceeds λ, establishing an infeasible lower bracket. Starting
  // from the sparse end keeps every solve cheap for the typical case of a
  // tight budget; the expensive dense near-unpenalized solve only happens
  // when λ genuinely exceeds the unconstrained solution's budget.
  // μ below ~1e-4·μ_max is numerically indistinguishable from the
  // unconstrained problem for selection purposes, and coordinate descent
  // slows dramatically on the near-singular grid Gram matrices there.
  constexpr double kFloorFactor = 1e-4;
  constexpr double kWalkShrink = 0.4;
  double hi = hi_mu;                      // feasible side
  GroupLassoResult best = solve_penalized(hi_mu);  // zero solution
  if (!best.status.ok()) return best;
  std::optional<linalg::Matrix> warm = best.beta;

  double lo = -1.0;  // infeasible side, found during the walk
  double lo_budget = 0.0;
  double previous_budget = 0.0;
  for (double mu = hi_mu * kWalkShrink; mu >= hi_mu * kFloorFactor;
       mu *= kWalkShrink) {
    GroupLassoResult res = solve_penalized(mu, warm);
    if (!res.status.ok()) return res;
    warm = res.beta;
    if (res.budget > lambda) {
      lo = mu;
      lo_budget = res.budget;
      break;
    }
    hi = mu;
    const bool saturated =
        res.budget > 0.0 &&
        res.budget - previous_budget <= options_.budget_slack * res.budget;
    previous_budget = res.budget;
    best = std::move(res);
    if (lambda - best.budget <= options_.budget_slack * lambda) return best;
    // Budget stopped growing: we are effectively at the unconstrained
    // solution, which fits inside λ — no need to push μ further down.
    if (saturated) return best;
  }
  if (lo < 0.0) {
    // Even the (nearly) unpenalized solution fits inside λ.
    return best;
  }

  // Illinois false position on f(x) = budget(e^x) − target in x = log μ,
  // over the bracket [log lo (f > 0, infeasible), log hi (f < 0, feasible)].
  // The target sits mid-way in the accepted band [λ(1 − slack), λ], so a
  // secant step that lands near it is accepted from either side.
  const double target = lambda * (1.0 - 0.5 * options_.budget_slack);
  double x_lo = std::log(lo), f_lo = lo_budget - target;
  double x_hi = std::log(hi), f_hi = best.budget - target;
  enum class Side { kNone, kLo, kHi } replaced = Side::kNone;
  for (std::size_t it = 0; it < options_.budget_bisections; ++it) {
    const double x = (x_lo * f_hi - x_hi * f_lo) / (f_hi - f_lo);
    GroupLassoResult res = solve_penalized(std::exp(x), warm);
    if (!res.status.ok()) return res;
    warm = res.beta;
    const double f = res.budget - target;
    if (res.budget <= lambda) {
      best = std::move(res);
      if (lambda - best.budget <= options_.budget_slack * lambda) break;
      x_hi = x;
      f_hi = f;
      // Illinois: an endpoint kept twice in a row has its value halved, so
      // the secant cannot stall against it.
      if (replaced == Side::kHi) f_lo *= 0.5;
      replaced = Side::kHi;
    } else {
      x_lo = x;
      f_lo = f;
      if (replaced == Side::kLo) f_hi *= 0.5;
      replaced = Side::kLo;
    }
    if (x_hi - x_lo < 1e-12) break;
  }
  return best;
}

}  // namespace vmap::core
