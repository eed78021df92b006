#include "workload/activity.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/assert.hpp"

namespace vmap::workload {

namespace {
constexpr double kGatedFloor = 0.05;  // residual (leakage-like) activity
}

ActivityGenerator::ActivityGenerator(const chip::Floorplan& floorplan,
                                     const BenchmarkProfile& profile, Rng rng)
    : floorplan_(floorplan),
      profile_(profile),
      rng_(rng),
      activity_(floorplan.block_count()),
      core_phase_(floorplan.core_count()),
      gate_(floorplan.core_count() * chip::kUnitKindCount),
      burst_(floorplan.block_count()),
      noise_(floorplan.block_count(), 0.0) {
  VMAP_REQUIRE(profile_.duty > 0.0 && profile_.duty <= 1.0,
               "duty must be in (0, 1]");
  VMAP_REQUIRE(profile_.phase_period >= 2.0, "phase period too short");
  VMAP_REQUIRE(profile_.core_correlation >= 0.0 &&
                   profile_.core_correlation <= 1.0,
               "core_correlation must be in [0, 1]");
  core_phase_offset_.reserve(floorplan.core_count());
  for (std::size_t c = 0; c < floorplan.core_count(); ++c)
    core_phase_offset_.push_back(rng_.uniform(0.0, 2.0 * std::numbers::pi));
}

double ActivityGenerator::unit_phase_gain(chip::UnitKind unit,
                                          double phase) const {
  // Compute units peak when phase > 0, memory units when phase < 0; other
  // units follow compute with half the swing.
  const double depth = profile_.phase_depth;
  switch (unit) {
    case chip::UnitKind::kExecute:
    case chip::UnitKind::kFloatingPoint:
      return 1.0 + depth * phase * profile_.compute_intensity;
    case chip::UnitKind::kLoadStore:
    case chip::UnitKind::kL2Cache:
      return 1.0 - depth * phase * profile_.memory_intensity;
    case chip::UnitKind::kFetch:
    case chip::UnitKind::kDecode:
    case chip::UnitKind::kMisc:
      return 1.0 + 0.5 * depth * phase;
  }
  return 1.0;
}

const linalg::Vector& ActivityGenerator::step() {
  const double tau = static_cast<double>(t_);
  const double shared_phase =
      std::sin(2.0 * std::numbers::pi * tau / profile_.phase_period);

  // Update per-(core, unit) gating state machines.
  for (std::size_t c = 0; c < floorplan_.core_count(); ++c) {
    for (std::size_t u = 0; u < chip::kUnitKindCount; ++u) {
      GateState& gs = gate_[c * chip::kUnitKindCount + u];
      if (gs.gated) {
        if (gs.remaining == 0) {
          // Wake-up: the unit re-powers and draws an inrush current burst —
          // the large di/dt event that causes first-droop emergencies.
          gs.gated = false;
          gs.inrush = profile_.wake_inrush_steps;
        } else {
          --gs.remaining;
        }
      } else if (gs.inrush > 0) {
        --gs.inrush;
      } else if (rng_.bernoulli(profile_.gating_rate)) {
        gs.gated = true;
        gs.remaining = 1 + static_cast<std::size_t>(
                               rng_.exponential(1.0 / profile_.mean_gated_steps));
      }
    }
  }

  // Each core's phase mixes the shared phase with its own.
  for (std::size_t c = 0; c < floorplan_.core_count(); ++c) {
    const double own_phase = std::sin(
        2.0 * std::numbers::pi * tau / profile_.phase_period +
        core_phase_offset_[c]);
    core_phase_[c] = profile_.core_correlation * shared_phase +
                     (1.0 - profile_.core_correlation) * own_phase;
  }

  for (const auto& block : floorplan_.blocks()) {
    const std::size_t core = block.core;
    const double phase = core_phase_[core];

    // Intensity scaling by unit class.
    double intensity = 1.0;
    switch (block.unit) {
      case chip::UnitKind::kExecute:
        intensity = profile_.compute_intensity;
        break;
      case chip::UnitKind::kFloatingPoint:
        intensity = profile_.compute_intensity;
        break;
      case chip::UnitKind::kLoadStore:
      case chip::UnitKind::kL2Cache:
        intensity = profile_.memory_intensity;
        break;
      case chip::UnitKind::kFetch:
      case chip::UnitKind::kDecode:
      case chip::UnitKind::kMisc:
        intensity = 0.5 * (profile_.compute_intensity +
                           profile_.memory_intensity);
        break;
    }

    double level = profile_.duty * block.power_weight * intensity *
                   unit_phase_gain(block.unit, phase);

    // AR(1) activity noise.
    double& ar = noise_[block.id];
    ar = profile_.noise_rho * ar +
         profile_.noise_sigma * rng_.normal();
    level *= std::max(0.0, 1.0 + ar);

    // di/dt bursts: mostly on execution-class blocks.
    BurstState& bs = burst_[block.id];
    if (bs.remaining > 0) {
      level *= profile_.burst_gain;
      --bs.remaining;
    } else {
      const bool bursty_unit = block.unit == chip::UnitKind::kExecute ||
                               block.unit == chip::UnitKind::kFloatingPoint ||
                               block.unit == chip::UnitKind::kLoadStore;
      const double rate =
          bursty_unit ? profile_.burst_rate : 0.25 * profile_.burst_rate;
      if (rng_.bernoulli(rate)) {
        bs.remaining = 1 + static_cast<std::size_t>(
                               rng_.exponential(1.0 / profile_.mean_burst_steps));
        level *= profile_.burst_gain;
      }
    }

    // Power gating slams the unit's activity to the leakage floor; waking
    // back up briefly overshoots (inrush).
    const GateState& gs =
        gate_[core * chip::kUnitKindCount + static_cast<std::size_t>(block.unit)];
    if (gs.gated) {
      level *= (1.0 - profile_.gating_depth);
      level = std::max(level, kGatedFloor * profile_.duty);
    } else if (gs.inrush > 0) {
      level *= profile_.wake_inrush_gain;
    }

    activity_[block.id] = std::max(level, 0.0);
  }
  ++t_;
  return activity_;
}

}  // namespace vmap::workload
