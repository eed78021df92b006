#pragma once
// Chip floorplan: cores, function blocks, and the FA/BA partition.
//
// Substitutes for the paper's 22nm 8-core Xeon-E5-like layout: a grid of
// identical cores, each instantiating a 30-block template organized into
// microarchitectural units (fetch, decode, execute, load/store, FP, L2,
// misc). Blocks are rectangles of power-grid nodes; the space between
// blocks, between cores, and around the die edge is the blank area (BA)
// where noise sensors may be placed.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "grid/power_grid.hpp"

namespace vmap::chip {

/// Microarchitectural unit a block belongs to (Fig. 3's color groups).
enum class UnitKind {
  kFetch,
  kDecode,
  kExecute,
  kLoadStore,
  kFloatingPoint,
  kL2Cache,
  kMisc,
};

/// Human-readable unit name ("EXE", "IFU", ...).
const char* unit_name(UnitKind kind);
/// Number of distinct unit kinds.
constexpr std::size_t kUnitKindCount = 7;

/// One functional circuit block instantiated in a core.
struct Block {
  std::size_t id = 0;    ///< global block index
  std::size_t core = 0;  ///< owning core index
  std::string name;      ///< e.g. "c3.exe.alu1"
  UnitKind unit = UnitKind::kMisc;
  // Grid-tile rectangle [x0, x1) x [y0, y1).
  std::size_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  std::vector<std::size_t> nodes;  ///< grid nodes covered by the block
  double power_weight = 1.0;       ///< nominal power share within the core

  std::size_t tile_count() const { return (x1 - x0) * (y1 - y0); }
};

/// Floorplan generation parameters.
struct FloorplanConfig {
  std::size_t cores_x = 4;      ///< core columns
  std::size_t cores_y = 2;      ///< core rows
  std::size_t core_margin = 2;  ///< BA halo (tiles) around each core region
};

/// Immutable floorplan bound to a PowerGrid.
class Floorplan {
 public:
  /// Generates the layout. Throws if the grid is too small to fit the
  /// 30-block core template with BA channels.
  Floorplan(const grid::PowerGrid& grid, const FloorplanConfig& config);

  const grid::PowerGrid& grid() const { return grid_; }
  const FloorplanConfig& config() const { return config_; }

  std::size_t core_count() const {
    return config_.cores_x * config_.cores_y;
  }
  std::size_t block_count() const { return blocks_.size(); }
  std::size_t blocks_per_core() const {
    return blocks_.size() / core_count();
  }

  const std::vector<Block>& blocks() const { return blocks_; }
  const Block& block(std::size_t id) const;
  /// Global block ids belonging to a core, in template order.
  std::vector<std::size_t> block_ids_in_core(std::size_t core) const;

  /// All grid nodes covered by function blocks (ascending).
  const std::vector<std::size_t>& fa_nodes() const { return fa_nodes_; }
  /// All blank-area nodes — the sensor candidate locations (ascending).
  const std::vector<std::size_t>& ba_nodes() const { return ba_nodes_; }

  bool is_fa_node(std::size_t node) const;
  /// Block covering a node, if any.
  std::optional<std::size_t> block_of_node(std::size_t node) const;
  /// Block covering each device-layer node, -1 for blank-area nodes.
  const std::vector<std::int32_t>& node_blocks() const { return node_block_; }

  /// Mean block power density (power weight per tile) over the
  /// (2·radius+1)²-tile window centered on `node`'s tile, clipped to the
  /// die: a tile covered by block b contributes b.power_weight divided by
  /// b's tile count; blank-area tiles contribute 0. A patch feature for
  /// spatially-aware model backends — hot neighborhoods droop deeper.
  /// `node` must be a device-layer node.
  double local_power_density(std::size_t node, std::size_t radius) const;

  /// BA nodes inside (and around, by the core margin) a core's region —
  /// the per-core sensor candidate set.
  std::vector<std::size_t> ba_candidates_for_core(std::size_t core) const;

  /// Core region rectangle [x0, x1) x [y0, y1) in grid tiles (excluding the
  /// margin halo).
  struct Rect {
    std::size_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  };

  /// ASCII rendering of the die: blocks as unit letters, BA as '.', nodes
  /// in `marked` overdrawn with '*' (used by the Fig. 3 harness).
  std::string ascii_map(const std::vector<std::size_t>& marked) const;

 private:
  void instantiate_core(std::size_t core, const Rect& region);

  const grid::PowerGrid& grid_;
  FloorplanConfig config_;
  std::vector<Block> blocks_;
  std::vector<std::size_t> fa_nodes_;
  std::vector<std::size_t> ba_nodes_;
  std::vector<std::int32_t> node_block_;  // -1 = BA
};

}  // namespace vmap::chip
