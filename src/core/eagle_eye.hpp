#pragma once
// Eagle-Eye baseline [Wang et al., ICCAD'13] reimplementation.
//
// Eagle-Eye places sensors at the candidate locations with the worst
// statistical voltage noise and alarms whenever a placed sensor itself
// observes an emergency (no prediction model). The DAC'15 paper
// characterizes it exactly this way; we provide two placement strategies:
//
//  * kWorstNoise      — rank candidates by emergency frequency (tie-broken
//                       by droop depth) and take the top Q per core. This
//                       clusters sensors around the hottest unit, which is
//                       the behaviour Fig. 3 contrasts against.
//  * kGreedyCoverage  — greedy maximum coverage of training emergencies
//                       (closer to Eagle-Eye's near-optimal set selection;
//                       a stronger baseline, used in the error-rate
//                       comparisons by default).

#include <cstddef>
#include <vector>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"

namespace vmap::core {

enum class EagleEyeStrategy { kWorstNoise, kGreedyCoverage };

struct EagleEyeOptions {
  EagleEyeStrategy strategy = EagleEyeStrategy::kGreedyCoverage;
  /// Emergency threshold (V); defaults to the dataset's configured value
  /// when NaN.
  double emergency_threshold = -1.0;
};

/// Places `sensors_per_core` sensors in every core's candidate region.
/// Returns selected rows into the dataset's X matrices (ascending).
std::vector<std::size_t> eagle_eye_place(const Dataset& data,
                                         const chip::Floorplan& floorplan,
                                         std::size_t sensors_per_core,
                                         EagleEyeOptions options = {});

}  // namespace vmap::core
