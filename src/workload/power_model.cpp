#include "workload/power_model.hpp"

#include "util/assert.hpp"

namespace vmap::workload {

PowerModel::PowerModel(const chip::Floorplan& floorplan, double current_scale,
                       double leakage_density)
    : floorplan_(floorplan),
      scale_(current_scale),
      leakage_(floorplan.grid().node_count()),
      per_node_share_(floorplan.block_count(), 0.0) {
  VMAP_REQUIRE(current_scale > 0.0, "current scale must be positive");
  VMAP_REQUIRE(leakage_density >= 0.0, "leakage must be non-negative");
  for (const auto& block : floorplan_.blocks()) {
    VMAP_ASSERT(!block.nodes.empty(), "block without nodes");
    per_node_share_[block.id] =
        1.0 / static_cast<double>(block.nodes.size());
    for (std::size_t node : block.nodes) leakage_[node] = leakage_density;
  }
}

void PowerModel::to_node_currents(const linalg::Vector& block_activity,
                                  linalg::Vector& node_currents) const {
  VMAP_REQUIRE(block_activity.size() == floorplan_.block_count(),
               "block activity size mismatch");
  node_currents = leakage_;
  for (const auto& block : floorplan_.blocks()) {
    const double per_node = scale_ * block_activity[block.id] *
                            per_node_share_[block.id];
    for (std::size_t node : block.nodes) node_currents[node] += per_node;
  }
}

void PowerModel::to_block_currents(const linalg::Vector& block_activity,
                                   linalg::Vector& block_currents) const {
  const std::size_t blocks = floorplan_.block_count();
  VMAP_REQUIRE(block_activity.size() == blocks,
               "block activity size mismatch");
  VMAP_REQUIRE(block_currents.size() == blocks,
               "block current size mismatch");
  for (std::size_t b = 0; b < blocks; ++b)
    block_currents[b] = scale_ * block_activity[b] * per_node_share_[b];
}

}  // namespace vmap::workload
