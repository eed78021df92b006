#include "core/pipeline.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "core/backend.hpp"
#include "linalg/kernels.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace vmap::core {

PlacementModel::PlacementModel(std::vector<CoreModel> cores,
                               std::vector<std::size_t> sensor_nodes,
                               std::size_t num_blocks)
    : cores_(std::move(cores)),
      sensor_nodes_(std::move(sensor_nodes)),
      num_blocks_(num_blocks) {
  for (const auto& core : cores_)
    sensor_rows_.insert(sensor_rows_.end(), core.selected_rows.begin(),
                        core.selected_rows.end());
  std::sort(sensor_rows_.begin(), sensor_rows_.end());
  sensor_rows_.erase(std::unique(sensor_rows_.begin(), sensor_rows_.end()),
                     sensor_rows_.end());
  VMAP_REQUIRE(sensor_rows_.size() == sensor_nodes_.size(),
               "sensor node list must align with selected rows");
  positions_.resize(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    const CoreModel& core = cores_[c];
    VMAP_REQUIRE(core.alpha.rows() == core.block_rows.size() &&
                     core.alpha.cols() == core.selected_rows.size() &&
                     core.intercept.size() == core.block_rows.size(),
                 "core coefficients must be block rows x selected rows");
    for (std::size_t row : core.block_rows)
      VMAP_REQUIRE(row < num_blocks_, "block row out of range");
    for (std::size_t row : core.selected_rows) {
      const auto it =
          std::lower_bound(sensor_rows_.begin(), sensor_rows_.end(), row);
      VMAP_ASSERT(it != sensor_rows_.end() && *it == row,
                  "selected row missing from the sensor list");
      positions_[c].push_back(
          static_cast<std::size_t>(it - sensor_rows_.begin()));
    }
  }
}

linalg::Matrix PlacementModel::predict(const linalg::Matrix& x_full) const {
  linalg::Matrix f_pred(num_blocks_, x_full.cols());
  for (const auto& core : cores_) {
    const linalg::Matrix x_sel = x_full.select_rows(core.selected_rows);
    linalg::Matrix f_core = linalg::matmul(core.alpha, x_sel);
    for (std::size_t k = 0; k < core.block_rows.size(); ++k) {
      const double c = core.intercept[k];
      const double* src = f_core.row_data(k);
      double* dst = f_pred.row_data(core.block_rows[k]);
      for (std::size_t s = 0; s < f_core.cols(); ++s) dst[s] = src[s] + c;
    }
  }
  return f_pred;
}

linalg::Vector PlacementModel::predict_from_sensor_readings(
    const linalg::Vector& readings) const {
  VMAP_REQUIRE(readings.size() == sensor_rows_.size(),
               "readings must align with the placed sensors");
  // Map global candidate rows to positions within the sensor list once per
  // call; the list is sorted, so binary search suffices.
  auto position_of = [this](std::size_t row) {
    const auto it =
        std::lower_bound(sensor_rows_.begin(), sensor_rows_.end(), row);
    VMAP_ASSERT(it != sensor_rows_.end() && *it == row,
                "selected row missing from the sensor list");
    return static_cast<std::size_t>(it - sensor_rows_.begin());
  };
  linalg::Vector f_pred(num_blocks_);
  for (const auto& core : cores_) {
    linalg::Vector x_sel(core.selected_rows.size());
    for (std::size_t j = 0; j < core.selected_rows.size(); ++j)
      x_sel[j] = readings[position_of(core.selected_rows[j])];
    linalg::Vector f_core = linalg::matvec(core.alpha, x_sel);
    for (std::size_t k = 0; k < core.block_rows.size(); ++k)
      f_pred[core.block_rows[k]] = f_core[k] + core.intercept[k];
  }
  return f_pred;
}

linalg::Matrix PlacementModel::predict_from_sensor_readings_batch(
    const linalg::Matrix& readings) const {
  VMAP_REQUIRE(readings.rows() == sensor_rows_.size(),
               "reading rows must align with the placed sensors");
  auto position_of = [this](std::size_t row) {
    const auto it =
        std::lower_bound(sensor_rows_.begin(), sensor_rows_.end(), row);
    VMAP_ASSERT(it != sensor_rows_.end() && *it == row,
                "selected row missing from the sensor list");
    return static_cast<std::size_t>(it - sensor_rows_.begin());
  };
  const std::size_t n = readings.cols();
  linalg::Matrix f_pred(num_blocks_, n);
  for (const auto& core : cores_) {
    linalg::Matrix x_sel(core.selected_rows.size(), n);
    for (std::size_t j = 0; j < core.selected_rows.size(); ++j) {
      const double* src =
          readings.row_data(position_of(core.selected_rows[j]));
      double* dst = x_sel.row_data(j);
      for (std::size_t s = 0; s < n; ++s) dst[s] = src[s];
    }
    const linalg::Matrix f_core = linalg::matmul(core.alpha, x_sel);
    for (std::size_t k = 0; k < core.block_rows.size(); ++k) {
      const double c = core.intercept[k];
      const double* src = f_core.row_data(k);
      double* dst = f_pred.row_data(core.block_rows[k]);
      for (std::size_t s = 0; s < n; ++s) dst[s] = src[s] + c;
    }
  }
  return f_pred;
}

void PlacementModel::worst_from_sensor_readings_batch(
    const linalg::Matrix& readings, std::size_t n, WorstScratch& scratch,
    WorstBlock* worst) const {
  VMAP_REQUIRE(readings.rows() == sensor_rows_.size(),
               "reading rows must align with the placed sensors");
  VMAP_REQUIRE(n <= readings.cols(), "more readings than reading columns");
  VMAP_REQUIRE(num_blocks_ > 0, "a model without blocks has no worst block");
  // Grown, never shrunk: a warm scratch serves any batch up to its size.
  const auto at_least = [](auto& buffer, std::size_t size) {
    if (buffer.size() < size) buffer.resize(size);
  };
  at_least(scratch.tile, num_blocks_ * linalg::kern::kAffinePanel);
  at_least(scratch.voltage, n);
  at_least(scratch.row, n);
  scratch.blocks.resize(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    const CoreModel& core = cores_[c];
    scratch.blocks[c] = {core.block_rows.size(), core.selected_rows.size(),
                         core.alpha.data(),      core.intercept.data(),
                         core.block_rows.data(), positions_[c].data()};
  }
  linalg::kern::affine_min(num_blocks_, scratch.blocks.data(),
                           scratch.blocks.size(), n,
                           readings.data(), readings.cols(),
                           scratch.tile.data(), scratch.voltage.data(),
                           scratch.row.data());
  for (std::size_t b = 0; b < n; ++b)
    worst[b] = {scratch.voltage[b], scratch.row[b]};
}

linalg::Vector PlacementModel::predict_sample(
    const linalg::Vector& x_full) const {
  linalg::Vector f_pred(num_blocks_);
  for (const auto& core : cores_) {
    linalg::Vector x_sel(core.selected_rows.size());
    for (std::size_t j = 0; j < core.selected_rows.size(); ++j)
      x_sel[j] = x_full[core.selected_rows[j]];
    linalg::Vector f_core = linalg::matvec(core.alpha, x_sel);
    for (std::size_t k = 0; k < core.block_rows.size(); ++k)
      f_pred[core.block_rows[k]] = f_core[k] + core.intercept[k];
  }
  return f_pred;
}

namespace {

CoreModel fit_core(const Dataset& data, const chip::Floorplan& floorplan,
                   std::size_t core_index,
                   std::vector<std::size_t> candidate_rows,
                   std::vector<std::size_t> block_rows,
                   const PipelineConfig& config, ResilienceReport* report) {
  VMAP_REQUIRE(!candidate_rows.empty(), "no candidates for this core");
  VMAP_REQUIRE(!block_rows.empty(), "no blocks for this core");
  TraceSpan span("pipeline.fit_core");
  span.arg("core", static_cast<double>(core_index));
  static metrics::Counter& fits = metrics::counter("pipeline.core_fits");
  static metrics::Histogram& fit_ms =
      metrics::histogram("pipeline.fit_core_ms");
  fits.add();
  metrics::ScopedTimerMs fit_timer(fit_ms);

  CoreModel core;
  core.core = core_index;
  core.candidate_rows = std::move(candidate_rows);
  core.block_rows = std::move(block_rows);

  const CoreFitContext ctx{data,          floorplan, core_index,
                           core.candidate_rows, core.block_rows,
                           config,        report};

  auto selector = make_selection_backend(config.selection);
  if (!selector.ok()) throw StatusError(selector.status());
  SelectionOutcome selection;
  {
    TraceSpan sel_span("backend.sel." + config.selection);
    selection = selector.value()->select_core(ctx);
  }
  VMAP_REQUIRE(!selection.selected_rows.empty(),
               "selection backend returned no sensors");
  core.group_norms = std::move(selection.group_norms);
  core.selected_rows = std::move(selection.selected_rows);

  if (config.refit_ols) {
    auto predictor = make_prediction_backend(config.prediction);
    if (!predictor.ok()) throw StatusError(predictor.status());
    TraceSpan pred_span("backend.pred." + config.prediction);
    PredictionFit fit = predictor.value()->fit_core(ctx, core.selected_rows);
    core.alpha = std::move(fit.alpha);
    core.intercept = std::move(fit.intercept);
  } else {
    // The no-refit ablation reuses the selection statistic as the model;
    // only backends whose statistic is a regression can supply it.
    if (!selection.raw_alpha || !selection.raw_intercept)
      throw StatusError(Status::InvalidArgument(
          "refit_ols=false needs a selection backend that exposes raw "
          "coefficients (only 'group_lasso' does), got '" +
          config.selection + "'"));
    core.alpha = std::move(*selection.raw_alpha);
    core.intercept = std::move(*selection.raw_intercept);
  }
  return core;
}

}  // namespace

PlacementModel fit_placement(const Dataset& data,
                             const chip::Floorplan& floorplan,
                             const PipelineConfig& config,
                             ResilienceReport* report) {
  TraceSpan span("pipeline.fit_placement");
  span.arg("lambda", config.lambda);
  metrics::counter("pipeline.placement_fits").add();
  VMAP_REQUIRE(config.lambda > 0.0, "lambda must be positive");
  VMAP_REQUIRE(config.threshold >= 0.0, "threshold must be non-negative");
  VMAP_REQUIRE(data.critical_block.size() == data.num_blocks(),
               "dataset critical-node/block mapping is inconsistent");

  // Validate both backend names on the caller's thread before fanning out,
  // so an unknown name fails fast as one InvalidArgument instead of
  // surfacing from inside the parallel region.
  {
    auto selector = make_selection_backend(config.selection);
    if (!selector.ok()) throw StatusError(selector.status());
    auto predictor = make_prediction_backend(config.prediction);
    if (!predictor.ok()) throw StatusError(predictor.status());
  }

  std::vector<CoreModel> cores;
  if (config.per_core) {
    // The per-core problems are independent; fit them concurrently. Each
    // core writes only its own slot, so the assembled model is identical
    // to the serial fit at any thread count.
    cores.resize(floorplan.core_count());
    parallel_for(0, floorplan.core_count(), [&](std::size_t c) {
      cores[c] = fit_core(data, floorplan, c,
                          data.candidate_rows_for_core(floorplan, c),
                          data.critical_rows_for_core(floorplan, c),
                          config, report);
    });
  } else {
    std::vector<std::size_t> all_candidates(data.num_candidates());
    std::iota(all_candidates.begin(), all_candidates.end(), 0);
    std::vector<std::size_t> all_blocks(data.num_blocks());
    std::iota(all_blocks.begin(), all_blocks.end(), 0);
    cores.push_back(fit_core(data, floorplan, 0, std::move(all_candidates),
                             std::move(all_blocks), config, report));
  }

  // Gather the union of selected rows, then map rows to grid nodes.
  std::vector<std::size_t> rows;
  for (const auto& core : cores)
    rows.insert(rows.end(), core.selected_rows.begin(),
                core.selected_rows.end());
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::vector<std::size_t> nodes;
  nodes.reserve(rows.size());
  for (std::size_t row : rows) nodes.push_back(data.candidate_nodes[row]);

  return PlacementModel(std::move(cores), std::move(nodes),
                        data.num_blocks());
}

}  // namespace vmap::core
