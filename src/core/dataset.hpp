#pragma once
// Training/test data collection (paper §3, Steps 1-2 of §2.4).
//
// DataCollector drives the whole substrate stack: for each benchmark it
// synthesizes block activity, converts it to grid load currents, steps the
// transient simulator, and samples voltage maps — the voltages at all BA
// sensor-candidate nodes (X) and at the per-block noise-critical FA nodes
// (F). A single unit-scale calibration pass first fixes the absolute
// current scale (worst droop = target) and picks each block's worst-noise
// node as its critical node.
//
// Collection is deterministic in the config seed. The step matrix is
// factorized once per collect, and the calibration pass and every panel's
// simulator share that factor. Every simulator takes its loads per block
// (workload::PowerModel::to_block_currents) and keeps its voltages in the
// factor's row order, and the collect reads its sampled nodes by factor
// row. Consecutive benchmarks form panels of a multiple of the solve's lane
// width, sized from the pool's thread count (util/parallel.hpp) so that the
// panels split evenly over the threads; each panel steps its benchmarks in
// lockstep as the lanes of one transient simulator (one multi-RHS solve per
// step), each benchmark with its own RNG stream. Threads take panels from a
// shared queue and advance each by a fixed number of steps per turn, and
// every kept map is written straight into the benchmark's column of X / F,
// at offsets fixed by the canonical suite order. Every lane is
// bit-identical to a one-lane simulation, so the dataset, and therefore its
// cache hash, is bit-identical at every thread count (any lane grouping).
// Because full collection costs minutes of simulation, datasets can be
// saved/loaded in a versioned binary cache keyed by the configuration.

#include <cstdint>
#include <string>
#include <vector>

#include "chip/floorplan.hpp"
#include "grid/power_grid.hpp"
#include "linalg/matrix.hpp"
#include "util/resilience.hpp"
#include "util/status.hpp"
#include "workload/benchmark_suite.hpp"

namespace vmap::core {

/// Collection parameters.
struct DataConfig {
  double dt = 100e-12;                     ///< transient step (s)
  std::size_t warmup_steps = 300;          ///< settle before sampling
  std::size_t train_maps_per_benchmark = 220;
  std::size_t test_maps_per_benchmark = 110;
  std::size_t map_stride = 3;              ///< keep every stride-th step
  std::size_t candidate_stride = 2;        ///< BA-node subsampling stride
  /// Representative (noise-critical) nodes monitored per block (§2.1 notes
  /// the model extends beyond one node per block).
  std::size_t critical_nodes_per_block = 1;
  /// Also offer function-area nodes as sensor candidates (§3.2's closing
  /// remark: FA sensors would further improve accuracy).
  bool include_fa_candidates = false;
  /// When > 0, the current scale is calibrated so that this fraction of
  /// calibration-window steps has some node below the emergency threshold
  /// (the paper's evaluation operates at a chip-level emergency base rate
  /// of roughly 0.3). When 0, target_droop is used instead.
  double target_emergency_rate = 0.30;
  double target_droop = 0.26;              ///< calibrated worst droop (V)
  double emergency_threshold = 0.85;       ///< V (paper: 0.85 of 1.0 VDD)
  std::size_t calibration_steps = 600;
  std::uint64_t seed = 20150607;
};

/// Column ranges of one benchmark inside the concatenated matrices.
struct BenchmarkSlice {
  std::string name;
  std::size_t train_begin = 0, train_end = 0;  ///< [begin, end) into *_train
  std::size_t test_begin = 0, test_end = 0;    ///< [begin, end) into *_test
};

/// Collected experiment data.
/// Deterministic hash of the physical platform (grid + floorplan
/// configuration); cache entries are keyed on it so editing the platform
/// invalidates stale datasets.
std::uint64_t platform_hash(const grid::GridConfig& grid_config,
                            const chip::FloorplanConfig& floorplan_config);

struct Dataset {
  DataConfig config;
  std::uint64_t workload_hash = 0;  ///< suite_hash() of the generating suite
  std::uint64_t platform = 0;       ///< platform_hash() of grid + floorplan
  double current_scale = 0.0;                ///< calibrated A/activity-unit
  std::vector<std::size_t> candidate_nodes;  ///< grid node per X row (M)
  std::vector<std::size_t> critical_nodes;   ///< grid node per F row (K)
  std::vector<std::size_t> critical_block;   ///< owning block id per F row
  linalg::Matrix x_train;  ///< M x N_train (raw volts)
  linalg::Matrix f_train;  ///< K x N_train
  linalg::Matrix x_test;   ///< M x N_test
  linalg::Matrix f_test;   ///< K x N_test
  std::vector<BenchmarkSlice> benchmarks;

  std::size_t num_candidates() const { return candidate_nodes.size(); }
  std::size_t num_blocks() const { return critical_nodes.size(); }

  /// Per-benchmark views (copies) of the concatenated matrices.
  linalg::Matrix x_train_for(std::size_t bench) const;
  linalg::Matrix x_test_for(std::size_t bench) const;
  linalg::Matrix f_test_for(std::size_t bench) const;

  /// Row indices into X of the candidates lying in `core`'s slot (covers
  /// both BA and — when enabled — FA candidates).
  std::vector<std::size_t> candidate_rows_for_core(
      const chip::Floorplan& floorplan, std::size_t core) const;

  /// Row indices into F of the critical nodes owned by `core`'s blocks.
  std::vector<std::size_t> critical_rows_for_core(
      const chip::Floorplan& floorplan, std::size_t core) const;

  /// Versioned binary serialization (cache format v7: checksummed
  /// sections, written with write_file_atomic — tmp, fsync, rename,
  /// directory fsync). The throwing wrappers
  /// raise StatusError; the try_ variants report kIo (filesystem) and
  /// kCorruption (integrity-check) failures as recoverable statuses.
  void save(const std::string& path) const;
  Status try_save(const std::string& path) const;
  static Dataset load(const std::string& path);
  static StatusOr<Dataset> try_load(const std::string& path);
};

/// Contiguous column slice [begin, end) of a matrix.
linalg::Matrix slice_cols(const linalg::Matrix& m, std::size_t begin,
                          std::size_t end);

/// Drives the substrate stack to produce a Dataset.
class DataCollector {
 public:
  DataCollector(const grid::PowerGrid& grid, const chip::Floorplan& floorplan,
                DataConfig config);

  /// Runs calibration + all benchmarks. Deterministic in config.seed.
  Dataset collect(const std::vector<workload::BenchmarkProfile>& suite) const;

 private:
  const grid::PowerGrid& grid_;
  const chip::Floorplan& floorplan_;
  DataConfig config_;
};

/// Loads `cache_path` if it exists, passes integrity checks, and matches
/// `config` (and the grid / floorplan shape); otherwise collects and saves.
/// Any cache problem — missing file, truncation, checksum mismatch, stale
/// configuration — falls back to recollection; a failed save of the fresh
/// dataset is logged but never fatal. Empty path disables caching. When
/// `report` is non-null, recollections and save failures are recorded.
Dataset load_or_collect(const std::string& cache_path,
                        const grid::PowerGrid& grid,
                        const chip::Floorplan& floorplan,
                        const DataConfig& config,
                        const std::vector<workload::BenchmarkProfile>& suite,
                        ResilienceReport* report = nullptr);

}  // namespace vmap::core
