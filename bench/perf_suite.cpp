// Perf regression suite for the parallel execution layer.
//
// Times the four hot operations — full dataset collection, the per-core
// GL+OLS placement fit, transient stepping (inherently sequential; its
// speedup should hover near 1x and any regression is a red flag), and the
// blocked dense matmul — at each requested thread count, prints a speedup
// table, and records every op@threads wall time in its --report so
// tools/perf_gate.py can gate them against bench/baselines/perf_suite.json.
//
// Collection and fitting are re-run at every thread count and the results
// are compared against the 1-thread run: the suite FAILS (exit 1) if any
// parallel dataset or model is not bit-identical to the serial one, so the
// perf numbers can never come from a diverging computation.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chip/floorplan.hpp"
#include "common.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "grid/power_grid.hpp"
#include "grid/transient.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/benchmark_suite.hpp"

namespace {

using namespace vmap;

struct Measurement {
  std::string op;
  std::size_t threads = 0;
  double wall_ms = 0.0;   // best of --reps runs of this cell
  double cal_ms = 0.0;    // per-cell calibration probe (machine-speed units)
  double speedup = 1.0;   // vs the baseline cell, calibration-normalized
};

/// Calibration-normalized speedup of `m` against the baseline cell: each
/// cell's wall time is first divided by the calibration probe taken right
/// next to it, so thermal drift or a noisy neighbor between cells cannot
/// fake a regression or mask a win.
double cell_speedup(const Measurement& base, const Measurement& m) {
  if (m.wall_ms <= 0.0 || base.cal_ms <= 0.0) return 1.0;
  const double base_norm = base.wall_ms / base.cal_ms;
  const double norm = m.wall_ms / (m.cal_ms > 0.0 ? m.cal_ms : base.cal_ms);
  return norm > 0.0 ? base_norm / norm : 1.0;
}

/// Runs `body` --reps times and keeps the fastest wall time, with a fresh
/// calibration probe per cell (best-of-N kills one-off scheduler hiccups;
/// the probe anchors the cell to current machine speed).
template <typename Body>
Measurement time_cell(const std::string& op, std::size_t threads, int reps,
                      Body&& body) {
  Measurement m;
  m.op = op;
  m.threads = threads;
  m.cal_ms = benchutil::calibration_ms();
  for (int rep = 0; rep < reps; ++rep) {
    Timer t;
    body();
    const double ms = t.millis();
    if (rep == 0 || ms < m.wall_ms) m.wall_ms = ms;
  }
  return m;
}

std::vector<std::size_t> parse_thread_list(const std::string& spec) {
  std::vector<std::size_t> list;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    const unsigned long v = std::stoul(spec.substr(pos, next - pos));
    if (v >= 1) list.push_back(static_cast<std::size_t>(v));
    pos = next + 1;
  }
  return list;
}

bool matrices_identical(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

bool datasets_identical(const core::Dataset& a, const core::Dataset& b) {
  return a.platform == b.platform && a.workload_hash == b.workload_hash &&
         a.current_scale == b.current_scale &&
         a.candidate_nodes == b.candidate_nodes &&
         a.critical_nodes == b.critical_nodes &&
         matrices_identical(a.x_train, b.x_train) &&
         matrices_identical(a.f_train, b.f_train) &&
         matrices_identical(a.x_test, b.x_test) &&
         matrices_identical(a.f_test, b.f_test);
}

bool models_identical(const core::PlacementModel& a,
                      const core::PlacementModel& b) {
  if (a.sensor_rows() != b.sensor_rows() ||
      a.cores().size() != b.cores().size())
    return false;
  for (std::size_t c = 0; c < a.cores().size(); ++c) {
    const auto& ca = a.cores()[c];
    const auto& cb = b.cores()[c];
    if (ca.selected_rows != cb.selected_rows ||
        !matrices_identical(ca.alpha, cb.alpha))
      return false;
    for (std::size_t k = 0; k < ca.intercept.size(); ++k)
      if (ca.intercept[k] != cb.intercept[k]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(
      "perf_suite — times collection / GL fit / transient stepping / matmul "
      "at several thread counts and checks bit-identity to the serial "
      "path");
  args.add_flag("threads-list", "",
                "comma-separated thread counts (default: 1,2,<hardware>)");
  args.add_flag("report", "",
                "write a machine-readable run report (JSON) to this path: "
                "per-op timings, bit-identity flag, metrics snapshot");
  args.add_bool("full", false,
                "canonical full-size collection (default: reduced maps for "
                "a fast regression run)");
  args.add_flag("seed", "20150607", "experiment seed");
  args.add_flag("transient-steps", "400", "transient stepping workload");
  args.add_flag("matmul-size", "512", "edge N of the N x 4N * 4N x N matmul");
  args.add_flag("reps", "3",
                "runs per (op, threads) cell; the fastest is reported");
  try {
    if (!args.parse(argc, argv)) return 0;
    set_log_level(LogLevel::kWarn);

    std::vector<std::size_t> thread_list;
    if (!args.get("threads-list").empty()) {
      thread_list = parse_thread_list(args.get("threads-list"));
    } else {
      const unsigned hw = std::thread::hardware_concurrency();
      thread_list = {1, 2};
      if (hw > 2) thread_list.push_back(hw);
    }
    if (thread_list.empty() || thread_list.front() != 1)
      thread_list.insert(thread_list.begin(), 1);

    core::ExperimentSetup setup = core::default_setup();
    setup.data.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    if (!args.get_bool("full")) {
      setup.data.train_maps_per_benchmark = 60;
      setup.data.test_maps_per_benchmark = 30;
      setup.data.warmup_steps = 100;
      setup.data.calibration_steps = 200;
    }
    const grid::PowerGrid grid(setup.grid);
    const chip::Floorplan floorplan(grid, setup.floorplan);
    const auto suite = workload::parsec_like_suite();

    const int reps = std::max(1, static_cast<int>(args.get_int("reps")));
    std::vector<Measurement> results;
    bool identical = true;

    // --- dataset collection + placement fit, per thread count ----------
    core::Dataset serial_data;
    Measurement collect1, fit1;
    for (std::size_t threads : thread_list) {
      set_thread_count(threads);

      core::Dataset data;
      Measurement m_collect =
          time_cell("collect", threads, reps, [&] {
            core::DataCollector collector(grid, floorplan, setup.data);
            data = collector.collect(suite);
          });

      core::PipelineConfig pc;
      pc.lambda = 6.0;
      std::optional<core::PlacementModel> model;
      Measurement m_fit = time_cell("gl_fit", threads, reps, [&] {
        model.emplace(core::fit_placement(data, floorplan, pc));
      });

      if (threads == thread_list.front()) {
        collect1 = m_collect;
        fit1 = m_fit;
        serial_data = std::move(data);
      } else {
        if (!datasets_identical(serial_data, data)) {
          std::fprintf(stderr,
                       "FAIL: dataset at %zu threads differs from serial\n",
                       threads);
          identical = false;
        }
        set_thread_count(1);
        const core::PlacementModel serial_model =
            core::fit_placement(serial_data, floorplan, pc);
        set_thread_count(threads);
        if (!models_identical(serial_model, *model)) {
          std::fprintf(stderr,
                       "FAIL: model at %zu threads differs from serial\n",
                       threads);
          identical = false;
        }
      }
      m_collect.speedup = cell_speedup(collect1, m_collect);
      m_fit.speedup = cell_speedup(fit1, m_fit);
      results.push_back(m_collect);
      results.push_back(m_fit);
      std::fprintf(stderr, "[perf] threads=%zu collect %.0f ms, fit %.0f ms\n",
                   threads, m_collect.wall_ms, m_fit.wall_ms);
    }

    // --- transient stepping (sequential by construction) ---------------
    const auto steps =
        static_cast<std::size_t>(args.get_int("transient-steps"));
    Measurement transient1;
    for (std::size_t threads : thread_list) {
      set_thread_count(threads);
      Measurement m = time_cell("transient_step", threads, reps, [&] {
        grid::TransientSim sim(grid, setup.data.dt);
        Rng rng(7);
        linalg::Vector load(grid.node_count());
        for (std::size_t i = 0; i < load.size(); ++i)
          load[i] = rng.bernoulli(0.3) ? 1e-3 : 0.0;
        for (std::size_t s = 0; s < steps; ++s) sim.step(load);
      });
      if (threads == thread_list.front()) transient1 = m;
      m.speedup = cell_speedup(transient1, m);
      results.push_back(m);
    }

    // --- blocked matmul -------------------------------------------------
    const auto n = static_cast<std::size_t>(args.get_int("matmul-size"));
    Rng rng(11);
    linalg::Matrix a(n, 4 * n), b(4 * n, n);
    for (std::size_t i = 0; i < a.rows(); ++i)
      for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.normal();
    for (std::size_t i = 0; i < b.rows(); ++i)
      for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
    Measurement matmul1;
    for (std::size_t threads : thread_list) {
      set_thread_count(threads);
      Measurement m = time_cell("matmul", threads, reps, [&] {
        const linalg::Matrix c = linalg::matmul(a, b);
        if (c(0, 0) == 12345.0) std::fprintf(stderr, "?");  // keep c alive
      });
      if (threads == thread_list.front()) matmul1 = m;
      m.speedup = cell_speedup(matmul1, m);
      results.push_back(m);
    }
    set_thread_count(0);

    // --- kernel instruction mix -----------------------------------------
    // Scalar vs SIMD vs SIMD+threads per kernel class, so the report shows
    // *where* scaling is lost: dispatch-level vectorization (the
    // scalar→simd column), thread-level partitioning (simd→simd_mt), or
    // neither (dot/axpy is sequential by contract — its mt column staying
    // flat is expected, not a regression). Speedups are against the scalar
    // cell of the same class, calibration-normalized like every other cell.
    {
      const std::size_t mt = thread_list.back();
      const linalg::kern::SimdLevel level_was = linalg::kern::simd_level();
      const std::size_t kn = 256;
      linalg::Matrix ka(kn, 4 * kn), kb(4 * kn, kn);
      linalg::Matrix kx(4 * kn, kn);            // Gram operand (tall)
      linalg::Matrix ks(16 * kn, kn / 2), kw(kn / 2, kn / 2);  // batched predict
      Rng krng(17);
      for (auto* mat : {&ka, &kb, &kx, &ks, &kw})
        for (std::size_t i = 0; i < mat->rows() * mat->cols(); ++i)
          mat->data()[i] = krng.normal();
      std::vector<double> kvx(1 << 15), kvy(1 << 15);
      for (std::size_t i = 0; i < kvx.size(); ++i) {
        kvx[i] = krng.normal();
        kvy[i] = krng.normal();
      }

      volatile double sink = 0.0;
      const auto kernel_bodies = [&](const std::string& cls) {
        return std::function<void()>([&, cls] {
          if (cls == "matmul") {
            const linalg::Matrix c = linalg::matmul(ka, kb);
            sink = c(0, 0);
          } else if (cls == "gram") {
            const linalg::Matrix g = linalg::matmul_at_b(kx, kx);
            sink = g(0, 0);
          } else if (cls == "dot_axpy") {
            double acc = 0.0;
            for (int r = 0; r < 400; ++r) {
              acc += linalg::kern::dot(kvx.size(), kvx.data(), kvy.data());
              linalg::kern::axpy(kvx.size(), 1e-9, kvx.data(), kvy.data());
            }
            sink = acc;
          } else {  // batched_matvec: samples x sensors · (rows x sensors)ᵀ
            const linalg::Matrix p = linalg::matmul_a_bt(ks, kw);
            sink = p(0, 0);
          }
        });
      };
      struct Variant {
        const char* name;
        bool simd;
        std::size_t threads;
      };
      const Variant variants[] = {
          {"scalar", false, 1}, {"simd", true, 1}, {"simd_mt", true, mt}};
      for (const char* cls : {"matmul", "gram", "dot_axpy", "batched_matvec"}) {
        Measurement scalar_cell;
        for (const Variant& v : variants) {
          linalg::kern::set_simd_level(
              v.simd ? linalg::kern::SimdLevel::kAvx2
                     : linalg::kern::SimdLevel::kScalar);
          set_thread_count(v.threads);
          Measurement m = time_cell(std::string("kern_") + cls + "_" + v.name,
                                    v.threads, reps, kernel_bodies(cls));
          if (v.threads == 1 && !v.simd) scalar_cell = m;
          m.speedup = cell_speedup(scalar_cell, m);
          results.push_back(m);
        }
      }
      (void)sink;
      linalg::kern::set_simd_level(level_was);
      set_thread_count(0);
    }

    // --- report ---------------------------------------------------------
    TablePrinter table({"op", "threads", "wall(ms)", "speedup"});
    for (const auto& m : results)
      table.add_row({m.op, TablePrinter::fmt(m.threads),
                     TablePrinter::fmt(m.wall_ms, 1),
                     TablePrinter::fmt(m.speedup, 2)});
    std::printf("== perf suite (bit-identity %s) ==\n",
                identical ? "OK" : "FAILED");
    table.print(std::cout);

    // Run report: every op@threads wall time (gated with the calibration-
    // normalized tolerance) plus bit_identity, which must stay exactly 1.
    benchutil::RunReport report("perf_suite");
    report.scalar("bit_identity", identical ? 1.0 : 0.0);
    report.scalar("thread_counts", static_cast<double>(thread_list.size()));
    for (const auto& m : results)
      report.timing(m.op + "@" + std::to_string(m.threads), m.wall_ms);
    benchutil::write_report(args, nullptr, report);

    if (!identical) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
