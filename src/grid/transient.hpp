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
// hands one to its calibration pass and to every panel.
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
// one factorization. Every lane is bit-identical to a one-lane simulator fed
// the same loads; dataset collection uses this to step a panel of
// benchmarks together.
//
// The state lives in the factor's row order: row r holds node
// permutation()[r], lane c at [r * stride() + c], the lanes padded to the
// solve's panel width (SkylineCholesky::solve_in_factor_order). A step is
// one linear pass that assembles C/dt·v − I + pad terms from the state into
// a second buffer, the sweeps in place on it, and a swap of the two
// buffers. Loads come per block (step_blocks(): node i draws its leakage
// plus its block's current, the sum workload::PowerModel::to_node_currents
// forms), and such a step touches nothing through the permutation: its
// callers read the nodes they sample by factor row (row_of(), rows()). Or
// loads come per node (step()), gathered into factor order, and step()
// scatters the new voltages back to node order for its result.

#include <cstddef>
#include <cstdint>
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
  /// as for step(). Returns the lane-interleaved node voltages (node i of
  /// lane c at [i * lanes() + c]). The transient.steps counter grows by
  /// lanes().
  const linalg::Vector& step(std::span<const linalg::Vector> load_currents);

  /// Sets the per-block loads step_blocks() applies: node i draws
  /// leakage[i] plus the current of block node_block[i], or leakage[i]
  /// alone where node_block[i] is negative. Either may cover only the
  /// device layer (the nodes past it draw nothing).
  void set_block_loads(std::span<const std::int32_t> node_block,
                       const linalg::Vector& leakage);

  /// Advances every lane one step on per-block currents (A):
  /// `block_currents[c][b]` is what each node of block b draws in lane c
  /// on top of its leakage (set_block_loads()). Leaves the voltages in
  /// rows(); the transient.steps counter grows by lanes().
  void step_blocks(std::span<const linalg::Vector> block_currents);

  /// Row stride of rows(): lanes() padded to the solve's panel width.
  std::size_t stride() const { return stride_; }
  /// The factor row holding `node`'s voltages in rows().
  std::size_t row_of(std::size_t node) const {
    return factor_->inverse_permutation()[node];
  }
  /// Current voltages in factor order: node n of lane c at
  /// [row_of(n) * stride() + c].
  const double* rows() const { return state_.data(); }

  /// Current per-pad branch currents (A), aligned with grid.pad_nodes(),
  /// pad p of lane c at [p * lanes() + c]; all zeros when the pads have no
  /// inductance.
  const linalg::Vector& pad_currents() const { return pad_currents_; }

 private:
  /// Adds the pad terms to next_, solves it into the new state, swaps the
  /// buffers and advances the pad currents and the step count.
  void finish_step();

  static constexpr std::int32_t kNoBlock = -1;

  const PowerGrid& grid_;
  double dt_;
  std::size_t lanes_;
  std::size_t stride_;  ///< row stride: lanes padded to the panel width
  bool inductive_ = false;
  double g_eff_ = 0.0;       ///< effective pad conductance 1/(R + L/dt)
  double history_gain_ = 0.0;  ///< g_eff * L/dt
  /// Of G (+ pad companion) + C/dt; possibly shared with other simulators.
  std::shared_ptr<const sparse::SkylineCholesky> factor_;
  linalg::Vector c_over_dt_;             ///< by factor row
  std::vector<std::size_t> pad_row_;     ///< pad index -> factor row
  std::vector<std::int32_t> row_block_;  ///< block per factor row
  std::vector<double> row_leakage_;      ///< leakage per factor row
  std::size_t blocks_ = 0;  ///< 1 + the largest block in row_block_
  /// The voltages, row r of lane c at [r * stride_ + c]; next_ is the step
  /// being assembled and solved. Padding lanes hold zeros.
  linalg::Vector state_;
  linalg::Vector next_;
  linalg::Vector nodes_;  ///< step()'s node-order result
  linalg::Vector pad_currents_;
  std::size_t steps_ = 0;
};

}  // namespace vmap::grid
