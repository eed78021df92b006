#pragma once
// Backward-Euler transient simulation of the power grid.
//
// The stepping matrix (G + C/dt, with pad impedances folded in) is
// constant, so it is factorized once and each time step costs only a
// forward/backward substitution. Backward Euler is L-stable: large current
// steps (power-gating events) cannot excite spurious numerical
// oscillations. The factor depends only on the grid and dt, and a solve
// only reads it, so simulators of one grid and step can share one
// factorization (factorize()), stepping concurrently; dataset collection
// hands one to its calibration pass and to every chunk.
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
// and the new voltages are scattered back to node order once.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "grid/power_grid.hpp"
#include "linalg/vector.hpp"
#include "sparse/skyline_cholesky.hpp"

namespace vmap::grid {

/// Time-stepping engine over a PowerGrid.
class TransientSim {
 public:
  /// The step matrix's factorization for `grid` at step `dt` (seconds,
  /// positive), to share among simulators of that grid and step.
  static std::shared_ptr<const sparse::SkylineCholesky> factorize(
      const PowerGrid& grid, double dt);

  /// `dt` is the step in seconds; must be positive. `lanes` (>= 1) is the
  /// number of lockstep simulations. Builds its own factorization.
  TransientSim(const PowerGrid& grid, double dt, std::size_t lanes = 1);
  /// The same on a shared `factor`, which must be factorize(grid, dt).
  TransientSim(const PowerGrid& grid, double dt,
               std::shared_ptr<const sparse::SkylineCholesky> factor,
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

 private:
  /// Writes every lane's step right-hand side into rhs_, in factor order.
  void assemble_rhs(std::span<const linalg::Vector> loads);

  const PowerGrid& grid_;
  double dt_;
  std::size_t lanes_;
  std::size_t stride_;  ///< rhs_ row stride: lanes padded to the panel width
  bool inductive_ = false;
  double g_eff_ = 0.0;       ///< effective pad conductance 1/(R + L/dt)
  double history_gain_ = 0.0;  ///< g_eff * L/dt
  /// Of G (+ pad companion) + C/dt; possibly shared with other simulators.
  std::shared_ptr<const sparse::SkylineCholesky> factor_;
  linalg::Vector c_over_dt_;
  std::vector<std::size_t> pad_slot_;  ///< pad index -> rhs_ row
  /// Row r of lane c at [r * stride_ + c]; row r is node
  /// factor_.permutation()[r].
  linalg::Vector rhs_;
  linalg::Vector v_;
  linalg::Vector pad_currents_;
  std::size_t steps_ = 0;
};

}  // namespace vmap::grid
