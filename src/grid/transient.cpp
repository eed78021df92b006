#include "grid/transient.hpp"

#include "sparse/csr.hpp"
#include "sparse/ordering.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace vmap::grid {

namespace {
/// Builds G + C/dt, swapping each pad's DC conductance for the RL
/// companion conductance when the pads are inductive.
sparse::CsrMatrix build_step_matrix(const PowerGrid& grid, double dt,
                                    double pad_conductance_delta) {
  const auto& g = grid.conductance();
  const auto& cap = grid.capacitance();
  std::vector<double> values = g.values();
  const auto& row_ptr = g.row_ptr();
  const auto& col_idx = g.col_idx();
  // Every node has at least one mesh/via segment, so its diagonal entry is
  // stored explicitly: one walk adds C/dt to every diagonal, and the few
  // pad diagonals are patched directly from the pad list — no full-grid
  // pad scan, and nothing extra at all for resistive (delta == 0) pads.
  for (std::size_t r = 0; r < g.rows(); ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] == r) {
        values[k] += cap[r] / dt;
        break;
      }
    }
  }
  if (pad_conductance_delta != 0.0) {
    for (std::size_t pad : grid.pad_nodes()) {
      for (std::size_t k = row_ptr[pad]; k < row_ptr[pad + 1]; ++k) {
        if (col_idx[k] == pad) {
          values[k] += pad_conductance_delta;
          break;
        }
      }
    }
  }
  return sparse::CsrMatrix(g.rows(), g.cols(), row_ptr, col_idx,
                           std::move(values));
}
}  // namespace

TransientSim::TransientSim(const PowerGrid& grid, double dt, StepSolver solver,
                           std::size_t lanes)
    : grid_(grid),
      dt_(dt),
      solver_kind_(solver),
      lanes_(lanes),
      stride_(sparse::SkylineCholesky::panel_stride(lanes)),
      c_over_dt_(grid.node_count()),
      rhs_(grid.node_count() * stride_),
      v_(grid.node_count() * lanes, grid.config().vdd),
      pad_currents_(grid.pad_nodes().size() * lanes) {
  VMAP_REQUIRE(dt > 0.0, "time step must be positive");
  VMAP_REQUIRE(lanes >= 1, "a transient simulator needs at least one lane");
  VMAP_REQUIRE(lanes == 1 || solver == StepSolver::kDirect,
               "multi-lane stepping needs the direct solver");

  const double r_pad = grid_.config().pad_resistance;
  const double l_pad = grid_.config().pad_inductance;
  inductive_ = l_pad > 0.0;
  double delta = 0.0;
  if (inductive_) {
    g_eff_ = 1.0 / (r_pad + l_pad / dt_);
    history_gain_ = g_eff_ * (l_pad / dt_);
    delta = g_eff_ - 1.0 / r_pad;  // replace 1/R with g_eff on pad diagonals
  }
  step_matrix_ = build_step_matrix(grid_, dt_, delta);

  const auto& cap = grid_.capacitance();
  for (std::size_t i = 0; i < cap.size(); ++i) c_over_dt_[i] = cap[i] / dt_;

  if (solver_kind_ == StepSolver::kDirect) {
    direct_ = std::make_unique<sparse::SkylineCholesky>(step_matrix_);
    use_order(direct_->permutation());
  } else {
    pcg_precond_ = sparse::ic0_preconditioner(step_matrix_);
    use_order(sparse::identity_permutation(grid_.node_count()));
  }
}

void TransientSim::use_order(std::vector<std::size_t> order) {
  order_ = std::move(order);
  const std::vector<std::size_t> slot = sparse::invert_permutation(order_);
  pad_slot_.clear();
  for (std::size_t pad : grid_.pad_nodes()) pad_slot_.push_back(slot[pad]);
}

void TransientSim::assemble_rhs(std::span<const linalg::Vector> loads) {
  // C/dt·v − I (+ the pad term), in the reference's operation order
  // ((C/dt·v) − I) + pad, for node order_[r] at row r. Padding lanes are
  // never written: they hold zeros, which the sweeps keep at zero.
  const std::size_t w = lanes_;
  const std::size_t s = stride_;
  for (std::size_t r = 0; r < order_.size(); ++r) {
    const std::size_t node = order_[r];
    const double g = c_over_dt_[node];
    const double* v = v_.data() + node * w;
    double* y = rhs_.data() + r * s;
    for (std::size_t c = 0; c < w; ++c) {
      const linalg::Vector& load = loads[c];
      y[c] = node < load.size() ? g * v[c] - load[node] : g * v[c];
    }
  }
  const double vdd = grid_.config().vdd;
  const auto& pads = grid_.pad_nodes();
  const auto& injection = grid_.pad_injection();
  for (std::size_t p = 0; p < pads.size(); ++p) {
    double* y = rhs_.data() + pad_slot_[p] * s;
    for (std::size_t c = 0; c < w; ++c)
      y[c] += inductive_
                  ? g_eff_ * vdd + history_gain_ * pad_currents_[p * w + c]
                  : injection[pads[p]];
  }
}

void TransientSim::reset() {
  v_.fill(grid_.config().vdd);
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
  static metrics::Counter& steps_total = metrics::counter("transient.steps");
  steps_total.add(w);

  assemble_rhs(load_currents);
  if (solver_kind_ == StepSolver::kDirect || pcg_degraded_) {
    // The sweeps turn the factor-order rhs into the new voltages in place;
    // scatter them back to node order once.
    direct_->solve_in_factor_order(stride_, rhs_.data());
    for (std::size_t r = 0; r < order_.size(); ++r)
      for (std::size_t c = 0; c < w; ++c)
        v_[order_[r] * w + c] = rhs_[r * stride_ + c];
  } else {
    StatusOr<sparse::CgResult> result = sparse::conjugate_gradient_checked(
        step_matrix_, rhs_, pcg_precond_, cg_options_);
    if (result.ok() && result->converged) {
      v_ = std::move(result->x);
    } else {
      solve_with_fallback(rhs_, result);
    }
  }

  const double vdd = grid_.config().vdd;
  const auto& pads = grid_.pad_nodes();
  if (inductive_) {
    for (std::size_t p = 0; p < pads.size(); ++p)
      for (std::size_t c = 0; c < w; ++c)
        pad_currents_[p * w + c] = g_eff_ * (vdd - v_[pads[p] * w + c]) +
                                   history_gain_ * pad_currents_[p * w + c];
  }
  ++steps_;
  return v_;
}

void TransientSim::solve_with_fallback(
    const linalg::Vector& rhs, const StatusOr<sparse::CgResult>& failed) {
  TraceSpan span("transient.step_fallback");
  metrics::counter("transient.step_fallbacks").add();
  if (report_) {
    if (!failed.ok()) {
      report_->record("transient_step", ResilienceAction::kRetry,
                      "PCG breakdown (" + failed.status().to_string() +
                          "); retrying with shifted IC(0)",
                      failed.status().code());
    } else {
      report_->record("transient_step", ResilienceAction::kRetry,
                      "PCG hit iteration cap; retrying with shifted IC(0)",
                      ErrorCode::kNotConverged, failed->relative_residual);
    }
  }

  // Rung 1: rebuild the preconditioner with a diagonal shift and retry.
  // On success the sturdier preconditioner is kept for subsequent steps so
  // the same failure is not re-triggered (and re-reported) every step.
  StatusOr<sparse::Preconditioner> shifted =
      sparse::try_ic0_preconditioner(step_matrix_, 1e-2);
  if (shifted.ok()) {
    StatusOr<sparse::CgResult> retry = sparse::conjugate_gradient_checked(
        step_matrix_, rhs, shifted.value(), cg_options_);
    if (retry.ok() && retry->converged) {
      v_ = std::move(retry->x);
      pcg_precond_ = std::move(shifted).value();
      if (report_)
        report_->record("transient_step", ResilienceAction::kFallback,
                        "recovered via shifted-IC(0) PCG; keeping shifted "
                        "preconditioner",
                        ErrorCode::kOk, retry->relative_residual);
      return;
    }
  }

  // Rung 2: direct skyline solve. The factorization is built lazily and the
  // simulator permanently degrades to it — one event, not one per step.
  if (!direct_) direct_ = std::make_unique<sparse::SkylineCholesky>(step_matrix_);
  v_ = direct_->solve(rhs);
  pcg_degraded_ = true;
  use_order(direct_->permutation());
  if (report_)
    report_->record("transient_step", ResilienceAction::kFallback,
                    "PCG unrecoverable; permanently degraded to skyline "
                    "direct stepping",
                    ErrorCode::kNotConverged);
}

const char* TransientSim::active_solver() const {
  if (solver_kind_ == StepSolver::kDirect) return "direct";
  return pcg_degraded_ ? "pcg-degraded->direct" : "pcg-ic0";
}

}  // namespace vmap::grid
