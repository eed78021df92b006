#pragma once
// Group lasso for multi-response sensor selection (paper §2.2, Eq. 12).
//
// The paper solves the constrained problem
//     min_β ||G − β Z||_F    s.t.  Σ_m ||β_m||₂ ≤ λ          (12)
// via SOCP. We solve the equivalent Lagrangian (penalized) problem
//     min_β ½||G − β Z||²_F + μ Σ_m ||β_m||₂
// by block coordinate descent (BCD: exact group updates), and recover the
// constrained solution for a budget λ by a false-position search on μ (the
// budget Σ||β_m||₂ is non-increasing in μ). Both problems trace the same
// solution path for this convex objective.
//
// BCD stops on a certificate: the relative primal–dual gap (Ndiaye et al.,
// "Gap Safe screening rules for sparsity enforcing penalties", JMLR 2017),
// computed from the maintained product P = βA. Its inner sweeps run on the
// working set of nonzero groups, gathered into contiguous blocks, with
// Anderson extrapolation of the iterates (Bertrand & Massias, "Anderson
// acceleration of coordinate descent", AISTATS 2021). Each working-set
// solve is inexact: it stops once the restricted problem's relative gap is
// at most max(tolerance, 0.3 × the full problem's gap at the start of that
// outer iteration) (Massias, Gramfort & Salmon, "Celer: a fast solver for
// the Lasso with dual extrapolation", ICML 2018), or at the sweep cap. The
// restricted gap never certifies a solve; only the full gap, from a freshly
// rebuilt P, does.
//
// Everything works on Gram matrices A = Z Zᵀ (M×M) and B = G Zᵀ (K×M), so
// the per-iteration cost is independent of the sample count N. They are
// built in column tiles of linalg::kGramTile samples (linalg::tiled_gram),
// and the per-core fit never forms Z or G: from_rows z-scores each tile of
// the dataset's listed X and F rows once, into a tile-sized buffer, and
// adds the tile's products to the running sums. from_data reads a given Z
// and G in place through the same routine, so there is one Gram path.
//
// Summation order. A solve is bit-identical at every kernel dispatch level
// (VMAP_SIMD=0 included): β, the sweep count and the selection do not
// depend on the CPU. Sums that decide when a solve stops keep their plain
// order: the certificate's ⟨β,B⟩ and ⟨β,P⟩ run as one chain each over
// (k, m) in row order, and a group update's ||r||² runs over k ascending.
// Reordering them moves the gap in its last bits, and with it the sweep
// count and the model. These chains are the solve's latency floor. The
// rest runs through linalg::kern kernels that keep every output's own
// chain and so match the plain loops bit for bit: one kern::rank1_update
// call refreshes P = βA after each group update, kern::diff_gram builds
// the Anderson UᵀU in one pass, and A = ZZᵀ comes from 4-row Gram panels.

#include <cstddef>
#include <optional>
#include <vector>

#include "core/normalizer.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/status.hpp"

namespace vmap::core {

/// Precomputed sufficient statistics of the normalized data, each scaled
/// by 1/N.
struct GroupLassoProblem {
  linalg::Matrix gram;    ///< A = Z Zᵀ, M x M
  linalg::Matrix cross;   ///< B = G Zᵀ, K x M
  double g_norm_sq = 0.0; ///< ||G||²_F, completes the objective value
  std::size_t samples = 0;

  std::size_t num_groups() const { return gram.rows(); }
  std::size_t num_responses() const { return cross.rows(); }

  /// Builds the statistics from normalized data matrices Z (M x N) and
  /// G (K x N).
  static GroupLassoProblem from_data(const linalg::Matrix& z,
                                     const linalg::Matrix& g);
  /// The statistics of Z = x_norm.normalize(x, x_rows) and
  /// G = f_norm.normalize(f, f_rows), bit for bit, without forming either:
  /// the listed rows are read in place and z-scored one column tile at a
  /// time.
  static GroupLassoProblem from_rows(const linalg::Matrix& x,
                                     const std::vector<std::size_t>& x_rows,
                                     const Normalizer& x_norm,
                                     const linalg::Matrix& f,
                                     const std::vector<std::size_t>& f_rows,
                                     const Normalizer& f_norm);
};

struct GroupLassoOptions {
  /// Bound on the relative duality gap (primal − dual) / primal that
  /// certifies a solve.
  double tolerance = 1e-6;
  /// Sweep cap; a safety net only — solves stop on the gap certificate.
  std::size_t max_iterations = 100000;
  /// Step limit of solve_budget's false-position search on μ.
  std::size_t budget_bisections = 60;
  double budget_slack = 1e-3;     ///< accept budgets within this rel. gap
};

struct GroupLassoResult {
  linalg::Matrix beta;          ///< K x M coefficients
  linalg::Vector group_norms;   ///< ||β_m||₂ per group
  double penalty_weight = 0.0;  ///< μ the solution corresponds to
  double budget = 0.0;          ///< Σ_m ||β_m||₂ achieved
  double objective = 0.0;       ///< ½||G − βZ||²_F + μ Σ||β_m||₂
  /// Final relative duality gap (primal − dual) / primal at penalty_weight.
  double duality_gap = 0.0;
  std::size_t iterations = 0;
  /// Working sets gathered: one per outer iteration whose full sweep left a
  /// nonzero group.
  std::size_t working_sets = 0;
  /// The stop rule was met (duality_gap ≤ tolerance); false means the sweep
  /// cap stopped the solve first.
  bool converged = false;
  /// kOk normally (even when converged == false: hitting the iteration cap
  /// is a usable-but-inexact outcome). kNumerical when the iterates went
  /// non-finite — the coefficients are then garbage and must not be used.
  Status status;

  /// Groups with ||β_m||₂ strictly above `threshold`.
  std::vector<std::size_t> active_groups(double threshold) const;
};

/// Solver over one (fixed-data) problem; cheap to call repeatedly along a
/// regularization path thanks to warm starts.
class GroupLasso {
 public:
  explicit GroupLasso(GroupLassoProblem problem,
                      GroupLassoOptions options = {});

  const GroupLassoProblem& problem() const { return problem_; }
  const GroupLassoOptions& options() const { return options_; }

  /// Smallest μ for which the all-zero solution is optimal:
  /// μ_max = max_m ||B_m||₂.
  double mu_max() const;

  /// Solves the penalized problem at weight `mu` (>= 0). Optional warm
  /// start (must be K x M).
  GroupLassoResult solve_penalized(
      double mu, const std::optional<linalg::Matrix>& warm_start =
                     std::nullopt) const;

  /// Solves the paper's constrained form: min ||G − βZ||_F subject to
  /// Σ||β_m||₂ ≤ λ: a warm-started walk down from μ_max brackets λ, then
  /// Illinois false position on the budget in log μ closes in on it. The
  /// returned budget is ≤ λ (within slack). λ larger than the unconstrained optimum's budget simply
  /// yields the (nearly) unpenalized solution.
  GroupLassoResult solve_budget(double lambda) const;

  /// ½||G − βZ||²_F evaluated through the Gram statistics.
  double smooth_objective(const linalg::Matrix& beta) const;

 private:
  GroupLassoResult solve_bcd(double mu,
                             const std::optional<linalg::Matrix>& warm) const;
  void finalize(GroupLassoResult& result, double mu) const;

  GroupLassoProblem problem_;
  GroupLassoOptions options_;
};

}  // namespace vmap::core
