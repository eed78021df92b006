// Reproduces Fig. 2: predicted vs. simulated voltage at one noise-critical
// node, with 2 and with 7 selected sensors per core.
//
// The paper overlays three traces (real, 2-sensor prediction, 7-sensor
// prediction) over a time window and observes that even two sensors track
// the droops closely, with the 7-sensor model visibly tighter. We use one
// benchmark's held-out test maps (consecutive snapshots of the transient)
// as the time axis, print the series (and optionally CSV), and report
// per-model error statistics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <utility>

#include "common.hpp"
#include "core/ols_model.hpp"
#include "core/pipeline.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace vmap;
  CliArgs args(
      "fig2_voltage_trace — Fig. 2: predicted vs real voltage trace at one "
      "critical node (2 vs 7 sensors per core)");
  benchutil::add_common_flags(args);
  args.add_flag("benchmark", "bm1", "benchmark supplying the trace window");
  args.add_flag("block", "-1",
                "block id to trace (-1 = the block with the deepest droop)");
  args.add_flag("sensors-few", "2", "sensor count for the small model");
  args.add_flag("sensors-many", "7", "sensor count for the large model");
  args.add_flag("window", "40", "number of consecutive test maps to print");
  args.add_flag("csv", "", "optional CSV output path for the full series");
  try {
    if (!args.parse(argc, argv)) return 0;
    const auto platform = benchutil::load_platform(args);
    const auto& data = platform.data;

    const std::size_t bench =
        workload::benchmark_index(platform.suite, args.get("benchmark"));
    const linalg::Matrix x_test = data.x_test_for(bench);
    const linalg::Matrix f_test = data.f_test_for(bench);

    // Fit the two models with fixed per-core sensor budgets.
    auto fit_with = [&](std::size_t per_core) {
      core::PipelineConfig config;
      config.lambda = benchutil::scaled_lambda(args, 60.0);  // loose budget
      config.sensors_per_core = per_core;
      return core::fit_placement(data, *platform.floorplan, config);
    };
    const auto model_few =
        fit_with(static_cast<std::size_t>(args.get_int("sensors-few")));
    const auto model_many =
        fit_with(static_cast<std::size_t>(args.get_int("sensors-many")));

    const linalg::Matrix pred_few = model_few.predict(x_test);
    const linalg::Matrix pred_many = model_many.predict(x_test);

    // Pick the trace block: deepest observed droop by default.
    std::size_t block = 0;
    if (args.get_int("block") >= 0) {
      block = static_cast<std::size_t>(args.get_int("block"));
    } else {
      double worst = 1e300;
      for (std::size_t k = 0; k < f_test.rows(); ++k) {
        const double mn = f_test.row(k).min();
        if (mn < worst) {
          worst = mn;
          block = k;
        }
      }
    }
    const auto& blk = platform.floorplan->block(block);
    std::printf("== Fig. 2: voltage trace at critical node of block %zu "
                "(%s), benchmark %s ==\n",
                block, blk.name.c_str(),
                data.benchmarks[bench].name.c_str());
    std::printf("dt between maps: %.2f ns; VDD = %.2f V; emergency "
                "threshold %.2f V\n\n",
                1e9 * platform.setup.data.dt *
                    static_cast<double>(platform.setup.data.map_stride),
                platform.setup.grid.vdd,
                platform.setup.data.emergency_threshold);

    const std::size_t window = std::min<std::size_t>(
        static_cast<std::size_t>(args.get_int("window")), f_test.cols());
    TablePrinter table({"t(map)", "real(V)", "pred 2 sensors(V)",
                        "pred 7 sensors(V)", "err2(mV)", "err7(mV)"});
    for (std::size_t s = 0; s < window; ++s) {
      const double real = f_test(block, s);
      const double p2 = pred_few(block, s);
      const double p7 = pred_many(block, s);
      table.add_row({TablePrinter::fmt(s), TablePrinter::fmt(real, 4),
                     TablePrinter::fmt(p2, 4), TablePrinter::fmt(p7, 4),
                     TablePrinter::fmt(1e3 * (p2 - real), 2),
                     TablePrinter::fmt(1e3 * (p7 - real), 2)});
    }
    table.print(std::cout);

    // Whole-trace error statistics for the figure's takeaway.
    auto stats = [&](const linalg::Matrix& pred) {
      double max_err = 0.0, sum_abs = 0.0;
      for (std::size_t s = 0; s < f_test.cols(); ++s) {
        const double e = std::abs(pred(block, s) - f_test(block, s));
        max_err = std::max(max_err, e);
        sum_abs += e;
      }
      return std::pair<double, double>(
          max_err, sum_abs / static_cast<double>(f_test.cols()));
    };
    const auto [max2, mean2] = stats(pred_few);
    const auto [max7, mean7] = stats(pred_many);
    std::printf("\nfull-trace stats over %zu maps:\n", f_test.cols());
    std::printf("  %zu sensors/core: mean |err| %.3f mV, max |err| %.3f mV\n",
                model_few.sensor_rows().size() /
                    platform.floorplan->core_count(),
                1e3 * mean2, 1e3 * max2);
    std::printf("  %zu sensors/core: mean |err| %.3f mV, max |err| %.3f mV\n",
                model_many.sensor_rows().size() /
                    platform.floorplan->core_count(),
                1e3 * mean7, 1e3 * max7);
    std::printf("  (paper: prediction error shrinks visibly from 2 to 7 "
                "sensors)\n");

    if (!args.get("csv").empty()) {
      CsvWriter csv(args.get("csv"),
                    {"map", "real_v", "pred2_v", "pred7_v"});
      for (std::size_t s = 0; s < f_test.cols(); ++s)
        csv.add_row(std::vector<double>{static_cast<double>(s),
                                        f_test(block, s), pred_few(block, s),
                                        pred_many(block, s)});
      csv.close();
      std::printf("\nwrote %s\n", csv.path().c_str());
    }

    benchutil::RunReport report("fig2_voltage_trace");
    report.scalar("trace_block", static_cast<double>(block));
    report.scalar("mean_abs_err_few_v", mean2);
    report.scalar("max_abs_err_few_v", max2);
    report.scalar("mean_abs_err_many_v", mean7);
    report.scalar("max_abs_err_many_v", max7);
    report.scalar("sensors_few",
                  static_cast<double>(model_few.sensor_rows().size()));
    report.scalar("sensors_many",
                  static_cast<double>(model_many.sensor_rows().size()));
    report.timing("platform_load", platform.load_ms);
    benchutil::write_report(args, &platform, report);
    benchutil::print_resilience(platform);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
