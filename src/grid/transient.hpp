#pragma once
// Backward-Euler transient simulation of the power grid.
//
// The stepping matrix (G + C/dt, with pad impedances folded in) is
// constant, so it is factorized once and each time step costs only a
// forward/backward substitution. Backward Euler is L-stable: large current
// steps (power-gating events) cannot excite spurious numerical
// oscillations.
//
// When the grid's pads carry a series inductance L, each pad branch is
// discretized with its backward-Euler companion model:
//     VDD − v⁺ = R i⁺ + (L/dt)(i⁺ − i)
//  ⇒  i⁺ = g_eff (VDD − v⁺) + g_eff (L/dt) i,   g_eff = 1/(R + L/dt)
// which amounts to swapping the pad's DC conductance for g_eff in the step
// matrix and adding a history term to the RHS; the pad currents are the
// extra state the simulator carries. This reproduces the L·di/dt first
// droop (the voltage undershoots below its resistive DC value after a load
// step) that the voltage-emergency literature targets.
//
// A simulator carries a fixed number of lanes: independent simulations of
// the same grid that advance in lockstep, one load vector each, through the
// one factorization. Node voltages and pad currents are stored
// lane-interleaved (node i of lane c at [i*lanes + c]), so the one-lane
// simulator is the plain per-node layout. Every lane is bit-identical to a
// one-lane simulator fed the same loads; dataset collection uses this to
// step a chunk's benchmarks together.
//
// A step assembles C/dt·v − I + pad terms in one pass straight into a
// buffer the simulator owns, already in the factor's permuted row order
// and padded to the solve's lane panel width
// (SkylineCholesky::solve_in_factor_order); the sweeps run in place on it
// and the new voltages are scattered back to node order once. The PCG
// path assembles through the same routine with the identity order.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "grid/power_grid.hpp"
#include "linalg/vector.hpp"
#include "sparse/cg.hpp"
#include "sparse/skyline_cholesky.hpp"
#include "util/resilience.hpp"

namespace vmap::grid {

/// Which linear solver backs each transient step.
enum class StepSolver {
  kDirect,  ///< prefactored skyline Cholesky (default)
  kPcgIc0,  ///< conjugate gradient with IC(0), for very large grids
};

/// Time-stepping engine over a PowerGrid.
class TransientSim {
 public:
  /// `dt` is the step in seconds; must be positive. `lanes` (>= 1) is the
  /// number of lockstep simulations; more than one needs kDirect.
  TransientSim(const PowerGrid& grid, double dt,
               StepSolver solver = StepSolver::kDirect,
               std::size_t lanes = 1);

  double dt() const { return dt_; }
  std::size_t lanes() const { return lanes_; }
  std::size_t steps_taken() const { return steps_; }
  double time() const { return static_cast<double>(steps_) * dt_; }

  /// Resets every lane to the all-VDD quiescent state (also the initial
  /// state).
  void reset();

  /// Advances a one-lane simulator one step with the given per-node load
  /// currents (A) applied during the new interval; the vector may cover
  /// only the device layer (zero-extended) or all nodes. Returns the node
  /// voltages after the step.
  const linalg::Vector& step(const linalg::Vector& load_currents);

  /// Advances every lane one step: `load_currents[c]` drives lane c, sized
  /// as for step(). Returns the lane-interleaved node voltages. The
  /// transient.steps counter grows by lanes().
  const linalg::Vector& step(std::span<const linalg::Vector> load_currents);

  /// Current node voltages, lane-interleaved (node i of lane c at
  /// [i * lanes() + c]).
  const linalg::Vector& voltages() const { return v_; }

  /// Current per-pad branch currents (A), aligned with grid.pad_nodes() and
  /// lane-interleaved like voltages(); all zeros when the pads have no
  /// inductance.
  const linalg::Vector& pad_currents() const { return pad_currents_; }

  /// Attaches a resilience report; solver fallbacks taken during step()
  /// are recorded into it. The report must outlive the simulator (or be
  /// detached with nullptr first). Not owned.
  void set_resilience_report(ResilienceReport* report) { report_ = report; }

  /// Overrides the PCG options used by kPcgIc0 stepping (tolerance,
  /// iteration cap, divergence guard). No effect on the direct solver.
  void set_cg_options(const sparse::CgOptions& options) {
    cg_options_ = options;
  }

  /// The solver currently answering step(): "direct", "pcg-ic0", or
  /// "pcg-degraded->direct" once the PCG path has permanently escalated.
  const char* active_solver() const;

 private:
  /// Escalation ladder for a failed PCG step: shifted-IC(0) retry, then a
  /// lazily built direct factorization (permanent degradation).
  void solve_with_fallback(const linalg::Vector& rhs,
                           const StatusOr<sparse::CgResult>& failed);
  /// Sets the rhs row order (row r is node order[r]) and the pad rows.
  void use_order(std::vector<std::size_t> order);
  /// Writes every lane's step right-hand side into rhs_, in order_.
  void assemble_rhs(std::span<const linalg::Vector> loads);

  const PowerGrid& grid_;
  double dt_;
  StepSolver solver_kind_;
  std::size_t lanes_;
  std::size_t stride_;  ///< rhs_ row stride: lanes padded to the panel width
  bool inductive_ = false;
  double g_eff_ = 0.0;       ///< effective pad conductance 1/(R + L/dt)
  double history_gain_ = 0.0;  ///< g_eff * L/dt
  sparse::CsrMatrix step_matrix_;  // G (+ pad companion) + C/dt
  std::unique_ptr<sparse::SkylineCholesky> direct_;
  sparse::Preconditioner pcg_precond_;
  sparse::CgOptions cg_options_;
  ResilienceReport* report_ = nullptr;  // not owned
  bool pcg_degraded_ = false;  ///< PCG path permanently escalated to direct
  linalg::Vector c_over_dt_;
  std::vector<std::size_t> order_;     ///< rhs_ row -> node
  std::vector<std::size_t> pad_slot_;  ///< pad index -> rhs_ row
  linalg::Vector rhs_;  ///< row r of lane c at [r * stride_ + c], in order_
  linalg::Vector v_;
  linalg::Vector pad_currents_;
  std::size_t steps_ = 0;
};

}  // namespace vmap::grid
