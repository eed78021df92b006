#pragma once
// Spatially-aware surrogate prediction backend (MAVIREC / CNN-IR-drop
// spirit, linearized): instead of regressing each block's voltage on the
// raw selected-sensor readings alone (the paper's OLS refit), every
// monitored node gets a patch-feature view of the die built from grid
// geometry:
//
//   * the raw readings of the core's selected sensors (identity features),
//   * an inverse-distance-weighted neighbor-voltage aggregate centered on
//     the monitored node,
//   * the nearest sensor's reading,
//   * the core-mean reading,
//   * a pad-context channel — the IDW aggregate scaled by the node's
//     distance to the nearest VDD pad under the active pad arrangement
//     (far-from-pad nodes droop deeper for the same neighborhood voltage),
//   * a power-density channel — the mean reading scaled by the local block
//     power density around the node (hot neighborhoods droop deeper).
//
// A ridge-regularized regression is fit per monitored node in standardized
// feature space. Every feature is a *fixed* linear functional of the
// sensor readings, so the fit folds back into the per-core affine model
// (alpha, intercept) the PlacementModel serves — the surrogate plugs into
// every downstream consumer (serving, checkpoints, Table-2 evaluation)
// unchanged. Fitting is deterministic: no RNG, fixed accumulation order.
//
// Knobs live in PipelineConfig::surrogate (SurrogateOptions).

#include <memory>

#include "core/backend.hpp"

namespace vmap::core {

/// Factory for the "spatial" prediction backend.
std::unique_ptr<PredictionBackend> make_spatial_surrogate_backend();

}  // namespace vmap::core
