#pragma once
// Declarative scenario matrix for the sweep engine.
//
// A Scenario is one (PDN × workload × corner) point: pad arrangement
// (square / triangular / hexagonal, per Carroll & Ortega-Cerdà), grid
// density and layer count, core count, per-die voltage offset corner (the
// Vmin variation-alignment motivation), and workload archetype. Each
// scenario round-trips through a canonical `spec()` string — the only
// thing a worker subprocess receives — and builds its full ExperimentSetup
// deterministically from it, so a job's result is a pure function of the
// spec and can be replayed, resumed, and byte-compared across runs.
//
// ScenarioMatrix is the cross product of per-axis value lists, expanded in
// a fixed nesting order; matrix_hash() keys the sweep journal so a resume
// against a different matrix is refused instead of mis-mapping job ids.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "grid/power_grid.hpp"
#include "util/status.hpp"

namespace vmap::sweep {

/// One sweep point. Default values give the miniature 2-core platform the
/// unit tests use; the collection-scale fields ride along in the spec so a
/// worker reproduces the exact dataset without any shared state.
struct Scenario {
  grid::PadArrangement pads = grid::PadArrangement::kSquare;
  double density = 1.0;      ///< tiles-per-core multiplier (grid density)
  bool two_layer = false;    ///< top-metal mesh + vias
  std::size_t cores_x = 2;
  std::size_t cores_y = 1;
  double vdd_offset = 0.0;   ///< per-die corner offset (V) on VDD = 1.0
  std::string workload = "parsec_mini";  ///< archetype_suite() name
  std::uint64_t seed = 20150607;
  // Collection scale (kept small: every job re-simulates its platform).
  std::size_t train_maps = 40;
  std::size_t test_maps = 20;
  std::size_t warmup_steps = 60;
  std::size_t calibration_steps = 150;

  /// Canonical `key=value;...` encoding; parse(spec()).spec() == spec().
  std::string spec() const;
  /// Short human-readable id for report rows ("tri-d1.00-L2-2x1-v-0.030-…").
  std::string id() const;
  /// FNV-1a over the spec bytes; journal records are keyed on it.
  std::uint64_t hash() const;
  /// Builds the full experiment platform configuration.
  core::ExperimentSetup setup() const;

  /// Parses a spec string; kInvalidArgument on unknown keys, malformed
  /// values, or missing fields.
  static StatusOr<Scenario> parse(const std::string& spec);
};

/// Cross product of axis values. Every axis must be non-empty.
struct ScenarioMatrix {
  std::vector<grid::PadArrangement> pad_arrangements = {
      grid::PadArrangement::kSquare};
  std::vector<double> densities = {1.0};
  std::vector<bool> layer_modes = {false};
  std::vector<std::pair<std::size_t, std::size_t>> core_grids = {{2, 1}};
  std::vector<double> vdd_offsets = {0.0};
  std::vector<std::string> workloads = {"parsec_mini"};
  std::uint64_t seed = 20150607;
  std::size_t train_maps = 40;
  std::size_t test_maps = 20;
  std::size_t warmup_steps = 60;
  std::size_t calibration_steps = 150;

  /// Expands the cross product in fixed nesting order (pads outermost,
  /// workloads innermost); job index i is position i of this list, always.
  std::vector<Scenario> expand() const;

  /// FNV-1a over every expanded spec, chained in order.
  std::uint64_t hash() const;
};

/// What a worker measures for one scenario (the Table-2-style summary).
struct JobResult {
  std::size_t sensors = 0;         ///< total sensors placed
  std::uint64_t placement = 0;     ///< FNV-1a over the sensor node ids
  double te = 0.0;                 ///< prediction-detector total error rate
  double rel_err = 0.0;            ///< voltage-map relative error
};

/// Serializes a result as the worker's payload text
/// ("sensors=12 placement=0123456789abcdef te=… rel_err=…").
std::string encode_result_payload(const JobResult& result);

/// Parses a payload; kCorruption when malformed (a worker that exited 0
/// but printed garbage must be classified, not trusted).
StatusOr<JobResult> parse_result_payload(const std::string& payload);

/// The self-checksummed line a worker prints on success:
/// "RESULT <payload> <fnv1a64-of-payload-hex>".
std::string encode_result_line(const JobResult& result);

/// Extracts and verifies the last RESULT line of a worker's output text.
/// kCorruption when no line is present or the checksum does not match.
StatusOr<JobResult> parse_result_output(const std::string& output);

/// The spellings the sweep's text artifacts share (scenario specs, result
/// payloads, the CSV report, telemetry axis keys): %.17g, which
/// round-trips every double, and 16 lower-case hex digits.
std::string exact_double(double v);
std::string hex64(std::uint64_t v);

}  // namespace vmap::sweep
