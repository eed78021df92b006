#include "core/eagle_eye.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vmap::core {

namespace {

/// Per-candidate noise statistics over the training maps.
struct NoiseScore {
  double emergency_fraction = 0.0;  ///< P(x_m < threshold)
  double mean_droop = 0.0;          ///< mean (VDD-ish reference free) droop
};

NoiseScore score_candidate(const linalg::Matrix& x, std::size_t row,
                           double threshold) {
  NoiseScore score;
  const double* values = x.row_data(row);
  double sum = 0.0;
  std::size_t below = 0;
  for (std::size_t s = 0; s < x.cols(); ++s) {
    sum += values[s];
    if (values[s] < threshold) ++below;
  }
  score.emergency_fraction =
      static_cast<double>(below) / static_cast<double>(x.cols());
  score.mean_droop = -sum / static_cast<double>(x.cols());
  return score;
}

std::vector<std::size_t> place_worst_noise(
    const linalg::Matrix& x, const std::vector<std::size_t>& candidate_rows,
    std::size_t count, double threshold) {
  std::vector<std::size_t> order = candidate_rows;
  std::vector<NoiseScore> scores(x.rows());
  for (std::size_t row : candidate_rows)
    scores[row] = score_candidate(x, row, threshold);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (scores[a].emergency_fraction !=
                         scores[b].emergency_fraction)
                       return scores[a].emergency_fraction >
                              scores[b].emergency_fraction;
                     return scores[a].mean_droop > scores[b].mean_droop;
                   });
  order.resize(std::min(count, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<std::size_t> place_greedy_coverage(
    const linalg::Matrix& x, const linalg::Matrix& f,
    const std::vector<std::size_t>& candidate_rows,
    const std::vector<std::size_t>& block_rows, std::size_t count,
    double threshold) {
  const std::size_t n = x.cols();
  // Ground-truth emergency samples for the monitored blocks.
  std::vector<bool> emergency(n, false);
  for (std::size_t k : block_rows) {
    const double* row = f.row_data(k);
    for (std::size_t s = 0; s < n; ++s)
      if (row[s] < threshold) emergency[s] = true;
  }

  std::vector<bool> covered(n, false);
  std::vector<std::size_t> chosen;
  std::vector<bool> used(x.rows(), false);

  for (std::size_t pick = 0; pick < count; ++pick) {
    std::size_t best_row = x.rows();
    std::size_t best_gain = 0;
    double best_depth = -1e300;
    for (std::size_t row : candidate_rows) {
      if (used[row]) continue;
      const double* values = x.row_data(row);
      std::size_t gain = 0;
      double depth = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        if (values[s] < threshold) {
          depth += threshold - values[s];
          if (emergency[s] && !covered[s]) ++gain;
        }
      }
      if (best_row == x.rows() || gain > best_gain ||
          (gain == best_gain && depth > best_depth)) {
        best_row = row;
        best_gain = gain;
        best_depth = depth;
      }
    }
    if (best_row == x.rows()) break;  // candidates exhausted
    used[best_row] = true;
    chosen.push_back(best_row);
    const double* values = x.row_data(best_row);
    for (std::size_t s = 0; s < n; ++s)
      if (values[s] < threshold) covered[s] = true;
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

double resolve_threshold(const Dataset& data, const EagleEyeOptions& options) {
  return options.emergency_threshold > 0.0
             ? options.emergency_threshold
             : data.config.emergency_threshold;
}

}  // namespace

std::vector<std::size_t> eagle_eye_place(const Dataset& data,
                                         const chip::Floorplan& floorplan,
                                         std::size_t sensors_per_core,
                                         EagleEyeOptions options) {
  VMAP_REQUIRE(sensors_per_core >= 1, "need at least one sensor per core");
  const double threshold = resolve_threshold(data, options);
  std::vector<std::size_t> all;
  for (std::size_t core = 0; core < floorplan.core_count(); ++core) {
    const auto candidate_rows = data.candidate_rows_for_core(floorplan, core);
    VMAP_REQUIRE(!candidate_rows.empty(),
                 "core has no sensor candidates in the dataset");
    std::vector<std::size_t> rows;
    if (options.strategy == EagleEyeStrategy::kWorstNoise) {
      rows = place_worst_noise(data.x_train, candidate_rows, sensors_per_core,
                               threshold);
    } else {
      rows = place_greedy_coverage(data.x_train, data.f_train, candidate_rows,
                                   data.critical_rows_for_core(floorplan, core),
                                   sensors_per_core, threshold);
    }
    all.insert(all.end(), rows.begin(), rows.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace vmap::core
