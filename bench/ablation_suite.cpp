// Ablations backing DESIGN.md §5: what each design choice buys.
//
//  A. Placement strategy at a fixed sensor budget — group lasso vs
//     Eagle-Eye (both variants) vs static-IR vs uniform vs random, all
//     evaluated with the same chip-wide OLS predictor so only *where* the
//     sensors sit differs.
//  B. OLS refit vs raw (shrunk) GL coefficients across λ — §2.3's bias.
//  C. Per-core vs whole-chip GL decomposition.
//  E. Model-backend matrix — every registered selection x prediction pair
//     head-to-head on the Table-2 metrics and fit wall time.
//
// --sections picks a subset (e.g. --sections=e for the CI ablation gate).
// There is no section D; E keeps its letter so the CI gate's invocation
// and the baseline's `sections` tag stay valid.

#include <cctype>
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/baselines.hpp"
#include "core/eagle_eye.hpp"
#include "core/emergency.hpp"
#include "core/ols_model.hpp"
#include "core/pipeline.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace vmap;

std::string scalar_key(std::string name) {
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

void placement_ablation(const benchutil::Platform& platform,
                        std::size_t sensors_per_core,
                        benchutil::RunReport& report) {
  const auto& data = platform.data;
  const std::size_t total =
      sensors_per_core * platform.floorplan->core_count();

  std::printf("\n== A. placement strategy at %zu sensors (%zu per core), "
              "identical OLS predictor ==\n",
              total, sensors_per_core);
  TablePrinter table({"placement", "rel error(%)", "rmse(mV)", "ME", "WAE",
                      "TE"});
  auto add = [&](const std::string& name,
                 const std::vector<std::size_t>& rows) {
    const auto eval = core::evaluate_placement_with_ols(data, rows);
    report.scalar("rel_err." + scalar_key(name), eval.relative_error);
    report.scalar("te." + scalar_key(name),
                  eval.detection.total_error_rate());
    table.add_row({name, TablePrinter::fmt(100.0 * eval.relative_error, 3),
                   TablePrinter::fmt(1e3 * eval.rmse_volts, 2),
                   TablePrinter::fmt(eval.detection.miss_rate(), 4),
                   TablePrinter::fmt(eval.detection.wrong_alarm_rate(), 4),
                   TablePrinter::fmt(eval.detection.total_error_rate(), 4)});
  };

  core::PipelineConfig config;
  config.lambda = 6.0;
  config.sensors_per_core = sensors_per_core;
  const auto model = core::fit_placement(data, *platform.floorplan, config);
  add("group lasso (proposed)", model.sensor_rows());

  add("greedy forward R2",
      core::place_greedy_r2(data, *platform.floorplan, sensors_per_core));
  core::EagleEyeOptions worst;
  worst.strategy = core::EagleEyeStrategy::kWorstNoise;
  add("eagle-eye worst-noise",
      core::eagle_eye_place(data, *platform.floorplan, sensors_per_core,
                            worst));
  core::EagleEyeOptions coverage;
  coverage.strategy = core::EagleEyeStrategy::kGreedyCoverage;
  add("eagle-eye greedy-coverage",
      core::eagle_eye_place(data, *platform.floorplan, sensors_per_core,
                            coverage));
  add("worst static IR",
      core::place_worst_static_ir(data, *platform.grid, *platform.floorplan,
                                  total));
  add("PCA leverage", core::place_pca_leverage(data, total, total));
  add("uniform lattice", core::place_uniform(data, *platform.grid, total));
  add("random (seed 1)", core::place_random(data, total, 1));
  add("random (seed 2)", core::place_random(data, total, 2));
  table.print(std::cout);
}

void refit_ablation(const benchutil::Platform& platform,
                    benchutil::RunReport& report) {
  const auto& data = platform.data;
  std::printf("\n== B. OLS refit vs raw GL coefficients (§2.3) ==\n");
  TablePrinter table({"lambda", "#sensors", "refit rel err(%)",
                      "raw-GL rel err(%)", "raw/refit"});
  for (double paper_lambda : {10.0, 30.0, 60.0}) {
    core::PipelineConfig with;
    with.lambda = paper_lambda * 0.10;
    core::PipelineConfig without = with;
    without.refit_ols = false;
    const auto refit = core::fit_placement(data, *platform.floorplan, with);
    const auto raw = core::fit_placement(data, *platform.floorplan, without);
    const double e_refit =
        core::relative_error(data.f_test, refit.predict(data.x_test));
    const double e_raw =
        core::relative_error(data.f_test, raw.predict(data.x_test));
    const std::string tag = "@" + TablePrinter::fmt(paper_lambda, 0);
    report.scalar("refit_rel_err" + tag, e_refit);
    report.scalar("raw_rel_err" + tag, e_raw);
    table.add_row({TablePrinter::fmt(paper_lambda, 0),
                   TablePrinter::fmt(refit.sensor_rows().size()),
                   TablePrinter::fmt(100.0 * e_refit, 3),
                   TablePrinter::fmt(100.0 * e_raw, 3),
                   TablePrinter::fmt(e_raw / e_refit, 1)});
  }
  table.print(std::cout);
  std::printf("(the GL budget shrinks coefficients; predicting with them "
              "directly inflates the error — the paper's argument for the "
              "refit)\n");
}

void decomposition_ablation(const benchutil::Platform& platform,
                            benchutil::RunReport& report) {
  const auto& data = platform.data;
  std::printf("\n== C. per-core vs whole-chip group lasso ==\n");
  TablePrinter table({"mode", "lambda", "#sensors", "rel error(%)",
                      "fit time(s)"});
  for (bool per_core : {true, false}) {
    // Whole-chip gets the aggregate budget (8x the per-core one).
    core::PipelineConfig config;
    config.per_core = per_core;
    config.lambda = per_core
                        ? 3.0
                        : 3.0 * static_cast<double>(
                                    platform.floorplan->core_count());
    Timer timer;
    const auto model = core::fit_placement(data, *platform.floorplan, config);
    const double seconds = timer.seconds();
    const double err =
        core::relative_error(data.f_test, model.predict(data.x_test));
    const std::string mode = per_core ? "per_core" : "whole_chip";
    report.scalar("sensors." + mode,
                  static_cast<double>(model.sensor_rows().size()));
    report.scalar("rel_err." + mode, err);
    report.timing("fit." + mode, 1e3 * seconds);
    table.add_row({per_core ? "per-core (8 problems)" : "whole-chip (1 problem)",
                   TablePrinter::fmt(config.lambda, 1),
                   TablePrinter::fmt(model.sensor_rows().size()),
                   TablePrinter::fmt(100.0 * err, 3),
                   TablePrinter::fmt(seconds, 1)});
  }
  table.print(std::cout);
}

void backend_matrix_ablation(const benchutil::Platform& platform,
                             std::size_t sensors_per_core,
                             benchutil::RunReport& report) {
  const auto& data = platform.data;
  const double vth = platform.setup.data.emergency_threshold;
  std::printf("\n== E. model-backend matrix at %zu sensors per core ==\n",
              sensors_per_core);
  TablePrinter table({"selection", "prediction", "#sensors", "rel error(%)",
                      "ME", "WAE", "TE", "fit(ms)"});
  for (const char* sel : {"group_lasso", "greedy_r2"}) {
    for (const char* pred : {"ols", "spatial"}) {
      core::PipelineConfig config;
      config.lambda = 6.0;
      config.sensors_per_core = sensors_per_core;
      config.selection = sel;
      config.prediction = pred;
      Timer timer;
      const auto model = core::fit_placement(data, *platform.floorplan,
                                             config, platform.report.get());
      const double fit_ms = timer.millis();
      const linalg::Matrix f_pred = model.predict(data.x_test);
      const double err = core::relative_error(data.f_test, f_pred);
      const auto det =
          core::evaluate_prediction_detector(data.f_test, f_pred, vth);

      // Scalar keys carry the backend names so the CI ablation gate can
      // pattern-match rows: "backend.*spatial*" is tolerance-gated while
      // the GL+OLS row stays byte-exact.
      const std::string key = std::string("backend.") + sel + "+" + pred;
      report.scalar(key + ".rel_err", err);
      report.scalar(key + ".me", det.miss_rate());
      report.scalar(key + ".wae", det.wrong_alarm_rate());
      report.scalar(key + ".te", det.total_error_rate());
      report.scalar(key + ".sensors",
                    static_cast<double>(model.sensor_rows().size()));
      report.timing(key + ".fit", fit_ms);
      table.add_row({sel, pred, TablePrinter::fmt(model.sensor_rows().size()),
                     TablePrinter::fmt(100.0 * err, 3),
                     TablePrinter::fmt(det.miss_rate(), 4),
                     TablePrinter::fmt(det.wrong_alarm_rate(), 4),
                     TablePrinter::fmt(det.total_error_rate(), 4),
                     TablePrinter::fmt(fit_ms, 1)});
    }
  }
  table.print(std::cout);
  std::printf("(group_lasso+ols is the paper; the spatial surrogate adds "
              "grid-geometry patch features, greedy_r2 swaps the selector)\n");
}

constexpr const char* kSections = "abce";

}  // namespace

int main(int argc, char** argv) {
  CliArgs args("ablation_suite — design-choice ablations (DESIGN.md §5)");
  benchutil::add_common_flags(args);
  args.add_flag("sensors", "2", "sensors per core for the placement table");
  args.add_flag("sections", kSections,
                "which ablation sections to run (any subset of \"abce\")");
  try {
    if (!args.parse(argc, argv)) return 0;
    std::string sections = args.get("sections");
    for (char& c : sections)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (sections.empty() ||
        sections.find_first_not_of(kSections) != std::string::npos) {
      std::fprintf(stderr,
                   "error: --sections \"%s\" must name one or more of the "
                   "known sections \"%s\" (a placement, b OLS refit, "
                   "c decomposition, e backend matrix)\n",
                   args.get("sections").c_str(), kSections);
      return 1;
    }
    const auto enabled = [&sections](char c) {
      return sections.find(c) != std::string::npos;
    };
    const auto sensors = static_cast<std::size_t>(args.get_int("sensors"));
    const auto platform = benchutil::load_platform(args);
    benchutil::RunReport report("ablation_suite");
    report.tag("sections", sections);
    report.timing("platform_load", platform.load_ms);
    if (enabled('a')) placement_ablation(platform, sensors, report);
    if (enabled('b')) refit_ablation(platform, report);
    if (enabled('c')) decomposition_ablation(platform, report);
    if (enabled('e')) backend_matrix_ablation(platform, sensors, report);
    benchutil::write_report(args, &platform, report);
    benchutil::print_resilience(platform);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
