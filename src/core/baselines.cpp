#include "core/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/ols_model.hpp"
#include "linalg/eigen.hpp"
#include "linalg/stats.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vmap::core {

std::vector<std::size_t> place_random(const Dataset& data, std::size_t count,
                                      std::uint64_t seed) {
  VMAP_REQUIRE(count >= 1 && count <= data.num_candidates(),
               "sensor count out of range");
  Rng rng(seed);
  auto rows = rng.sample_without_replacement(data.num_candidates(), count);
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::size_t> place_uniform(const Dataset& data,
                                       const grid::PowerGrid& grid,
                                       std::size_t count) {
  VMAP_REQUIRE(count >= 1 && count <= data.num_candidates(),
               "sensor count out of range");
  const auto& gc = grid.config();
  // Near-square lattice: rows x cols >= count, aspect following the die.
  const double aspect =
      static_cast<double>(gc.nx) / static_cast<double>(gc.ny);
  std::size_t lat_rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::round(std::sqrt(static_cast<double>(count) / aspect))));
  std::size_t lat_cols = (count + lat_rows - 1) / lat_rows;

  std::vector<std::size_t> chosen;
  std::vector<bool> used(data.num_candidates(), false);
  for (std::size_t r = 0; r < lat_rows && chosen.size() < count; ++r) {
    for (std::size_t c = 0; c < lat_cols && chosen.size() < count; ++c) {
      const double tx = (static_cast<double>(c) + 0.5) /
                        static_cast<double>(lat_cols) *
                        static_cast<double>(gc.nx) * gc.pitch_um;
      const double ty = (static_cast<double>(r) + 0.5) /
                        static_cast<double>(lat_rows) *
                        static_cast<double>(gc.ny) * gc.pitch_um;
      // Nearest unused candidate to the lattice point.
      std::size_t best = data.num_candidates();
      double best_d = 1e300;
      for (std::size_t row = 0; row < data.num_candidates(); ++row) {
        if (used[row]) continue;
        const auto [px, py] =
            grid.node_position_um(data.candidate_nodes[row]);
        const double d = std::hypot(px - tx, py - ty);
        if (d < best_d) {
          best_d = d;
          best = row;
        }
      }
      VMAP_ASSERT(best < data.num_candidates(), "no candidate left");
      used[best] = true;
      chosen.push_back(best);
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

std::vector<std::size_t> place_worst_static_ir(
    const Dataset& data, const grid::PowerGrid& grid,
    const chip::Floorplan& floorplan, std::size_t count) {
  VMAP_REQUIRE(count >= 1 && count <= data.num_candidates(),
               "sensor count out of range");
  // Nominal DC load: every block draws power_weight * calibrated scale,
  // spread over its nodes.
  linalg::Vector load(grid.node_count());
  for (const auto& block : floorplan.blocks()) {
    const double per_node = data.current_scale * block.power_weight /
                            static_cast<double>(block.nodes.size());
    for (std::size_t node : block.nodes) load[node] += per_node;
  }
  const linalg::Vector dc = grid.dc_solve(load);

  std::vector<std::size_t> rows(data.num_candidates());
  std::iota(rows.begin(), rows.end(), 0);
  std::stable_sort(rows.begin(), rows.end(),
                   [&](std::size_t a, std::size_t b) {
                     return dc[data.candidate_nodes[a]] <
                            dc[data.candidate_nodes[b]];
                   });
  rows.resize(count);
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::size_t> place_pca_leverage(const Dataset& data,
                                            std::size_t count,
                                            std::size_t components) {
  VMAP_REQUIRE(count >= 1 && count <= data.num_candidates(),
               "sensor count out of range");
  VMAP_REQUIRE(components >= 1, "need at least one component");
  const linalg::Matrix corr = linalg::correlation(data.x_train);
  const std::size_t m = corr.rows();
  const std::size_t top = std::min(components, m);
  const linalg::SymmetricEigen eig = linalg::top_symmetric_eigen(corr, top);

  linalg::Vector leverage(m);
  for (std::size_t j = 0; j < top; ++j)
    for (std::size_t i = 0; i < m; ++i)
      leverage[i] += eig.vectors(i, j) * eig.vectors(i, j);

  std::vector<std::size_t> rows(m);
  std::iota(rows.begin(), rows.end(), 0);
  std::stable_sort(rows.begin(), rows.end(),
                   [&](std::size_t a, std::size_t b) {
                     return leverage[a] > leverage[b];
                   });
  rows.resize(count);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Greedy forward selection over one candidate set in Gram space.
/// Returns local candidate indices (into `candidate_rows`).
std::vector<std::size_t> greedy_r2_select(
    const linalg::Matrix& x,  // local candidates x samples (raw)
    const linalg::Matrix& f,  // local responses x samples (raw)
    std::size_t count) {
  const std::size_t m = x.rows();
  const std::size_t k = f.rows();
  const std::size_t n = x.cols();
  VMAP_REQUIRE(n >= 2, "need at least two samples");
  count = std::min(count, m);

  // Center, then build the Gram statistics once.
  linalg::Matrix xc = x;
  for (std::size_t r = 0; r < m; ++r) {
    double mu = 0.0;
    const double* row = x.row_data(r);
    for (std::size_t c = 0; c < n; ++c) mu += row[c];
    mu /= static_cast<double>(n);
    double* dst = xc.row_data(r);
    for (std::size_t c = 0; c < n; ++c) dst[c] = row[c] - mu;
  }
  linalg::Matrix fc = f;
  for (std::size_t r = 0; r < k; ++r) {
    double mu = 0.0;
    const double* row = f.row_data(r);
    for (std::size_t c = 0; c < n; ++c) mu += row[c];
    mu /= static_cast<double>(n);
    double* dst = fc.row_data(r);
    for (std::size_t c = 0; c < n; ++c) dst[c] = row[c] - mu;
  }
  linalg::Matrix a = linalg::matmul_a_at(xc);      // m x m
  linalg::Matrix b = linalg::matmul_a_bt(fc, xc);  // k x m

  std::vector<std::size_t> selected;
  std::vector<bool> used(m, false);
  // Incrementally-grown Cholesky factor L of A_SS (row-major, dense).
  linalg::Matrix l(count, count);

  for (std::size_t round = 0; round < count; ++round) {
    const std::size_t s = selected.size();
    std::size_t best = m;
    double best_gain = -1.0;
    linalg::Vector w(s), c_res(k);
    for (std::size_t j = 0; j < m; ++j) {
      if (used[j]) continue;
      // w = L^-1 a_{Sj} (forward substitution).
      for (std::size_t i = 0; i < s; ++i) {
        double acc = a(selected[i], j);
        for (std::size_t t = 0; t < i; ++t) acc -= l(i, t) * w[t];
        w[i] = acc / l(i, i);
      }
      // Residual variance of candidate j after projecting on S.
      double r_j = a(j, j);
      for (std::size_t i = 0; i < s; ++i) r_j -= w[i] * w[i];
      if (r_j <= 1e-12 * (1.0 + a(j, j))) continue;  // collinear with S
      // Residual cross-covariance with every response:
      // c_j = B_j − (B_S A_SS⁻¹ a_{Sj}) = B_j − (B_S L^-T) (L^-1 a_{Sj}).
      // We keep G = B_S L^-T incrementally? Recompute via v = L^-T w is
      // equivalent: c_j = B_j − B_S v with v = A_SS⁻¹ a_{Sj}.
      linalg::Vector v(s);
      for (std::size_t ii = s; ii-- > 0;) {
        double acc = w[ii];
        for (std::size_t t = ii + 1; t < s; ++t) acc -= l(t, ii) * v[t];
        v[ii] = acc / l(ii, ii);
      }
      double gain = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        double c_kj = b(kk, j);
        for (std::size_t i = 0; i < s; ++i) c_kj -= b(kk, selected[i]) * v[i];
        gain += c_kj * c_kj;
      }
      gain /= r_j;
      if (gain > best_gain) {
        best_gain = gain;
        best = j;
      }
    }
    if (best == m) break;  // everything left is collinear

    // Grow the Cholesky factor with the chosen candidate.
    for (std::size_t i = 0; i < s; ++i) {
      double acc = a(selected[i], best);
      for (std::size_t t = 0; t < i; ++t) acc -= l(i, t) * l(s, t);
      l(s, i) = acc / l(i, i);
    }
    double diag = a(best, best);
    for (std::size_t t = 0; t < s; ++t) diag -= l(s, t) * l(s, t);
    VMAP_ASSERT(diag > 0.0, "greedy pivot lost positive definiteness");
    l(s, s) = std::sqrt(diag);

    used[best] = true;
    selected.push_back(best);
  }
  return selected;
}

std::vector<std::size_t> place_greedy_r2(const Dataset& data,
                                         const chip::Floorplan& floorplan,
                                         std::size_t sensors_per_core) {
  VMAP_REQUIRE(sensors_per_core >= 1, "need at least one sensor per core");
  std::vector<std::size_t> all;
  for (std::size_t core = 0; core < floorplan.core_count(); ++core) {
    const auto candidate_rows = data.candidate_rows_for_core(floorplan, core);
    const auto critical_rows = data.critical_rows_for_core(floorplan, core);
    VMAP_REQUIRE(!candidate_rows.empty() && !critical_rows.empty(),
                 "core without candidates or monitored nodes");
    const linalg::Matrix x = data.x_train.select_rows(candidate_rows);
    const linalg::Matrix f = data.f_train.select_rows(critical_rows);
    for (std::size_t local : greedy_r2_select(x, f, sensors_per_core))
      all.push_back(candidate_rows[local]);
  }
  std::sort(all.begin(), all.end());
  return all;
}

PlacementEvaluation evaluate_placement_with_ols(
    const Dataset& data, const std::vector<std::size_t>& sensor_rows) {
  VMAP_REQUIRE(!sensor_rows.empty(), "placement has no sensors");
  const linalg::Matrix x_train = data.x_train.select_rows(sensor_rows);
  const OlsModel model(x_train, data.f_train);

  const linalg::Matrix x_test = data.x_test.select_rows(sensor_rows);
  const linalg::Matrix f_pred = model.predict(x_test);

  PlacementEvaluation eval;
  eval.sensors = sensor_rows.size();
  eval.relative_error = relative_error(data.f_test, f_pred);
  eval.rmse_volts = rmse(data.f_test, f_pred);
  eval.detection = evaluate_prediction_detector(
      data.f_test, f_pred, data.config.emergency_threshold);
  return eval;
}

}  // namespace vmap::core
