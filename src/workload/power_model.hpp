#pragma once
// Block activity -> power-grid load currents (the McPAT substitute).
//
// Each block's activity level becomes a current draw spread uniformly over
// the block's grid nodes, plus a small chip-wide leakage floor on all FA
// nodes. The absolute current scale (amps per activity unit) is fixed by a
// calibration run so that the worst transient droop lands at a chosen
// depth — the linear grid makes droop exactly proportional to scale.

#include <cstddef>

#include "chip/floorplan.hpp"
#include "grid/power_grid.hpp"
#include "linalg/vector.hpp"

namespace vmap::workload {

/// Converts block activity vectors to per-node load-current vectors.
class PowerModel {
 public:
  /// `current_scale` is in amps per activity unit per block;
  /// `leakage_density` is a constant per-FA-node current (A).
  PowerModel(const chip::Floorplan& floorplan, double current_scale,
             double leakage_density = 0.0);

  double current_scale() const { return scale_; }

  /// Fills `node_currents` (size = grid nodes) from `block_activity`
  /// (size = block count). Overwrites the output.
  void to_node_currents(const linalg::Vector& block_activity,
                        linalg::Vector& node_currents) const;

  /// The same loads per block: fills `block_currents` (size = block count)
  /// with what each node of the block draws on top of its leakage(), so
  /// node i of block b draws leakage()[i] + block_currents[b], the sum
  /// to_node_currents() forms.
  void to_block_currents(const linalg::Vector& block_activity,
                         linalg::Vector& block_currents) const;

  /// Per-node leakage current (A), size = grid nodes; zero off the FA.
  const linalg::Vector& leakage() const { return leakage_; }

 private:
  const chip::Floorplan& floorplan_;
  double scale_;
  linalg::Vector leakage_;             // per-node constant term
  std::vector<double> per_node_share_;  // 1/nodes-per-block, by block id
};

}  // namespace vmap::workload
