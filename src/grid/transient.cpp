#include "grid/transient.hpp"

#include <algorithm>
#include <utility>

#include "sparse/csr.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace vmap::grid {

namespace {
/// The pads' RL companion conductance 1/(R + L/dt); 0 for resistive pads.
double companion_conductance(const PowerGrid& grid, double dt) {
  VMAP_REQUIRE(dt > 0.0, "time step must be positive");
  const GridConfig& c = grid.config();
  return c.pad_inductance > 0.0
             ? 1.0 / (c.pad_resistance + c.pad_inductance / dt)
             : 0.0;
}

/// Builds G + C/dt, swapping each pad's DC conductance for the RL
/// companion conductance `g_eff` when the pads are inductive.
sparse::CsrMatrix build_step_matrix(const PowerGrid& grid, double dt,
                                    bool inductive, double g_eff) {
  const auto& g = grid.conductance();
  const auto& cap = grid.capacitance();
  std::vector<double> values = g.values();
  const auto& row_ptr = g.row_ptr();
  const auto& col_idx = g.col_idx();
  // Every node has at least one mesh/via segment, so its diagonal entry is
  // stored explicitly: one walk adds C/dt to every diagonal, and the few
  // pad diagonals are patched directly from the pad list — no full-grid
  // pad scan, and nothing extra at all for resistive pads.
  for (std::size_t r = 0; r < g.rows(); ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] == r) {
        values[k] += cap[r] / dt;
        break;
      }
    }
  }
  if (inductive) {
    // Replace 1/R with g_eff on the pad diagonals.
    const double delta = g_eff - 1.0 / grid.config().pad_resistance;
    for (std::size_t pad : grid.pad_nodes()) {
      for (std::size_t k = row_ptr[pad]; k < row_ptr[pad + 1]; ++k) {
        if (col_idx[k] == pad) {
          values[k] += delta;
          break;
        }
      }
    }
  }
  return sparse::CsrMatrix(g.rows(), g.cols(), row_ptr, col_idx,
                           std::move(values));
}
}  // namespace

std::shared_ptr<const sparse::SkylineCholesky> TransientSim::factorize(
    const PowerGrid& grid, double dt) {
  return std::make_shared<const sparse::SkylineCholesky>(build_step_matrix(
      grid, dt, grid.config().pad_inductance > 0.0,
      companion_conductance(grid, dt)));
}

TransientSim::TransientSim(const PowerGrid& grid, double dt,
                           std::size_t lanes)
    : TransientSim(grid, dt, factorize(grid, dt), lanes) {}

TransientSim::TransientSim(
    const PowerGrid& grid, double dt,
    std::shared_ptr<const sparse::SkylineCholesky> factor, std::size_t lanes)
    : grid_(grid),
      dt_(dt),
      lanes_(lanes),
      stride_(sparse::SkylineCholesky::panel_stride(lanes)),
      inductive_(grid.config().pad_inductance > 0.0),
      g_eff_(companion_conductance(grid, dt)),
      history_gain_(inductive_ ? g_eff_ * (grid.config().pad_inductance / dt)
                               : 0.0),
      factor_(std::move(factor)),
      c_over_dt_(grid.node_count()),
      state_(grid.node_count() * stride_),
      next_(grid.node_count() * stride_),
      pad_currents_(grid.pad_nodes().size() * lanes) {
  VMAP_REQUIRE(lanes >= 1, "a transient simulator needs at least one lane");
  VMAP_REQUIRE(factor_ && factor_->dim() == grid.node_count(),
               "step factor does not match the grid");
  const auto& cap = grid_.capacitance();
  const std::vector<std::size_t>& order = factor_->permutation();
  for (std::size_t r = 0; r < order.size(); ++r)
    c_over_dt_[r] = cap[order[r]] / dt_;
  for (std::size_t pad : grid_.pad_nodes()) pad_row_.push_back(row_of(pad));
  reset();
}

void TransientSim::reset() {
  // Only the live lanes: the padding lanes stay zero, which the sweeps
  // keep at zero.
  const double vdd = grid_.config().vdd;
  for (std::size_t r = 0; r < grid_.node_count(); ++r)
    for (std::size_t c = 0; c < lanes_; ++c) state_[r * stride_ + c] = vdd;
  pad_currents_.fill(0.0);
  steps_ = 0;
}

const linalg::Vector& TransientSim::step(
    const linalg::Vector& load_currents) {
  return step(std::span<const linalg::Vector>(&load_currents, 1));
}

const linalg::Vector& TransientSim::step(
    std::span<const linalg::Vector> load_currents) {
  const std::size_t w = lanes_;
  VMAP_REQUIRE(load_currents.size() == w, "need one load vector per lane");
  for (const linalg::Vector& load : load_currents)
    VMAP_REQUIRE(load.size() == grid_.node_count() ||
                     load.size() == grid_.device_node_count(),
                 "load current vector size mismatch");
  TraceSpan span("transient.step");
  // C/dt·v − I, in the reference's operation order, for node order[r] at
  // row r; finish_step() adds the pad terms.
  const std::vector<std::size_t>& order = factor_->permutation();
  const std::size_t s = stride_;
  for (std::size_t r = 0; r < order.size(); ++r) {
    const std::size_t node = order[r];
    const double g = c_over_dt_[r];
    const double* v = state_.data() + r * s;
    double* y = next_.data() + r * s;
    for (std::size_t c = 0; c < w; ++c) {
      const linalg::Vector& load = load_currents[c];
      y[c] = node < load.size() ? g * v[c] - load[node] : g * v[c];
    }
  }
  finish_step();
  if (nodes_.empty()) nodes_ = linalg::Vector(order.size() * w);
  for (std::size_t r = 0; r < order.size(); ++r)
    for (std::size_t c = 0; c < w; ++c)
      nodes_[order[r] * w + c] = state_[r * s + c];
  return nodes_;
}

void TransientSim::set_block_loads(std::span<const std::int32_t> node_block,
                                   const linalg::Vector& leakage) {
  const std::size_t n = grid_.node_count();
  VMAP_REQUIRE(node_block.size() == n ||
                   node_block.size() == grid_.device_node_count(),
               "node-to-block map size mismatch");
  VMAP_REQUIRE(
      leakage.size() == n || leakage.size() == grid_.device_node_count(),
      "leakage vector size mismatch");
  const std::vector<std::size_t>& order = factor_->permutation();
  row_block_.assign(n, kNoBlock);
  row_leakage_.assign(n, 0.0);
  blocks_ = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t node = order[r];
    if (node < node_block.size() && node_block[node] >= 0) {
      row_block_[r] = node_block[node];
      blocks_ = std::max(blocks_,
                         static_cast<std::size_t>(node_block[node]) + 1);
    }
    if (node < leakage.size()) row_leakage_[r] = leakage[node];
  }
}

void TransientSim::step_blocks(
    std::span<const linalg::Vector> block_currents) {
  const std::size_t w = lanes_;
  VMAP_REQUIRE(!row_block_.empty(), "step_blocks() needs set_block_loads()");
  VMAP_REQUIRE(block_currents.size() == w,
               "need one block-current vector per lane");
  for (const linalg::Vector& currents : block_currents)
    VMAP_REQUIRE(currents.size() >= blocks_,
                 "block current vector size mismatch");
  TraceSpan span("transient.step");
  // C/dt·v − (leakage + block current): a row outside every block draws
  // its leakage alone, as PowerModel::to_node_currents leaves it.
  const std::size_t s = stride_;
  for (std::size_t r = 0; r < row_block_.size(); ++r) {
    const double g = c_over_dt_[r];
    const double leak = row_leakage_[r];
    const std::int32_t b = row_block_[r];
    const double* v = state_.data() + r * s;
    double* y = next_.data() + r * s;
    if (b == kNoBlock) {
      for (std::size_t c = 0; c < w; ++c) y[c] = g * v[c] - leak;
    } else {
      for (std::size_t c = 0; c < w; ++c)
        y[c] = g * v[c] - (leak + block_currents[c][b]);
    }
  }
  finish_step();
}

void TransientSim::finish_step() {
  static metrics::Counter& steps_total = metrics::counter("transient.steps");
  const std::size_t w = lanes_;
  const std::size_t s = stride_;
  const double vdd = grid_.config().vdd;
  const auto& pads = grid_.pad_nodes();
  const auto& injection = grid_.pad_injection();
  for (std::size_t p = 0; p < pads.size(); ++p) {
    double* y = next_.data() + pad_row_[p] * s;
    for (std::size_t c = 0; c < w; ++c)
      y[c] += inductive_
                  ? g_eff_ * vdd + history_gain_ * pad_currents_[p * w + c]
                  : injection[pads[p]];
  }
  // The sweeps turn the assembled right-hand side into the new voltages in
  // place; the old state's buffer takes the next step's.
  factor_->solve_in_factor_order(s, next_.data());
  std::swap(state_, next_);
  if (inductive_) {
    for (std::size_t p = 0; p < pads.size(); ++p)
      for (std::size_t c = 0; c < w; ++c)
        pad_currents_[p * w + c] =
            g_eff_ * (vdd - state_[pad_row_[p] * s + c]) +
            history_gain_ * pad_currents_[p * w + c];
  }
  ++steps_;
  steps_total.add(w);
}

}  // namespace vmap::grid
