#pragma once
// Per-block activity synthesis for one benchmark run.
//
// Produces, step by step, a vector of activity levels (dimensionless,
// O(1)) for every function block on the chip. The components mirror what a
// cycle-level simulator's power trace exhibits at power-grid timescales:
//
//   * program phases — slow sinusoidal modulation, with compute units and
//     memory units in anti-phase (compute-heavy vs memory-heavy intervals);
//   * power gating — whole units drop to a gated floor and later wake,
//     producing the large current steps that cause first-droop emergencies;
//   * di/dt bursts — short multiplicative spikes on execution blocks;
//   * AR(1) noise — cycle-to-cycle activity jitter;
//   * cross-core correlation — a shared chip-wide phase mixed into each
//     core's phase according to the profile's core_correlation.

#include <cstddef>
#include <vector>

#include "chip/floorplan.hpp"
#include "linalg/vector.hpp"
#include "util/rng.hpp"
#include "workload/benchmark_suite.hpp"

namespace vmap::workload {

/// Stateful per-step activity generator; deterministic given its seed.
class ActivityGenerator {
 public:
  ActivityGenerator(const chip::Floorplan& floorplan,
                    const BenchmarkProfile& profile, Rng rng);

  /// Advances one step and returns the per-block activity (size = number of
  /// blocks; indexed by block id). Values are >= 0.
  const linalg::Vector& step();

  const linalg::Vector& current_activity() const { return activity_; }
  std::size_t steps() const { return t_; }
  const BenchmarkProfile& profile() const { return profile_; }

 private:
  struct GateState {
    bool gated = false;
    std::size_t remaining = 0;  // steps left in the current gated interval
    std::size_t inrush = 0;     // wake-inrush steps left after un-gating
  };
  struct BurstState {
    std::size_t remaining = 0;
  };

  double unit_phase_gain(chip::UnitKind unit, double phase) const;

  const chip::Floorplan& floorplan_;
  BenchmarkProfile profile_;
  Rng rng_;
  std::size_t t_ = 0;
  linalg::Vector activity_;

  std::vector<double> core_phase_offset_;      // per core
  std::vector<double> core_phase_;             // this step's phase per core
  std::vector<GateState> gate_;                // per (core, unit kind)
  std::vector<BurstState> burst_;              // per block
  std::vector<double> noise_;                  // AR(1) state per block
};

}  // namespace vmap::workload
