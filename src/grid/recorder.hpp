#pragma once
// Voltage trace and voltage-map recording during transient simulation.
//
// Full traces of every node would be prohibitively large, so recording is
// scoped: a TraceRecorder watches a chosen node subset every step, and a
// MapSampler snapshots the chosen nodes only at subsampled instants —
// exactly the "randomly select voltage maps" collection the paper uses.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace vmap::grid {

/// Records voltages of a fixed node subset at every observed step.
class TraceRecorder {
 public:
  /// `nodes` are grid node ids to watch (order preserved).
  explicit TraceRecorder(std::vector<std::size_t> nodes);

  /// Appends one time sample from the full node-voltage vector.
  void observe(const linalg::Vector& all_voltages);

  std::size_t watched_count() const { return nodes_.size(); }
  std::size_t samples() const { return samples_; }
  const std::vector<std::size_t>& nodes() const { return nodes_; }

  /// Trace of the i-th watched node (by position in `nodes`).
  linalg::Vector trace(std::size_t watched_index) const;

  /// All traces as a matrix: one row per watched node, one column per
  /// sample — the paper's X / F layout.
  linalg::Matrix as_matrix() const;

  /// Minimum voltage each watched node ever reached.
  linalg::Vector min_per_node() const;

 private:
  std::vector<std::size_t> nodes_;
  std::vector<double> data_;  // row-major [sample][watched]
  std::size_t samples_ = 0;
};

/// Snapshots a node subset every `stride` observations.
class MapSampler {
 public:
  /// Watches `nodes`, keeping every `stride`-th observation (stride >= 1),
  /// starting with observation `phase` (0-based).
  MapSampler(std::vector<std::size_t> nodes, std::size_t stride,
             std::size_t phase = 0);

  void observe(const linalg::Vector& all_voltages);

  std::size_t maps() const { return kept_; }
  const std::vector<std::size_t>& nodes() const { return nodes_; }

  /// Kept snapshots as a matrix: one row per watched node, one column per
  /// kept map.
  linalg::Matrix as_matrix() const;

 private:
  std::vector<std::size_t> nodes_;
  std::size_t stride_;
  std::size_t phase_;
  std::size_t seen_ = 0;
  std::size_t kept_ = 0;
  std::vector<double> data_;  // row-major [map][watched]
};

}  // namespace vmap::grid
