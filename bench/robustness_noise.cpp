// Robustness study: how much of the methodology survives realistic
// sensors?
//
// The paper evaluates with ideal sensor readings. Here the placed sensors
// are degraded with ADC quantization, thermal noise, and per-instance
// offsets; two training regimes are compared at every noise level:
//   * clean-trained  — the design-time model sees ideal simulations and is
//                      surprised by noise at runtime;
//   * noise-trained  — the refit is performed on noisy readings, letting
//                      OLS absorb the noise statistics.
//
// --inject switches to the runtime fault-injection suite instead: each
// scenario damages one pipeline input (cache bytes, trace files) and
// checks that the resilience layer detects it, recovers through the
// documented fallback, and lands within 1e-9 of the clean run's result.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>

#include "common.hpp"
#include "core/emergency.hpp"
#include "core/ols_model.hpp"
#include "core/pipeline.hpp"
#include "core/sensor_noise.hpp"
#include "grid/power_grid.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace vmap;

/// Reference pipeline result for the injection suite: fixed-budget fit on
/// the (tiny) dataset, scored by the Table 2 metric.
double placement_te(const core::Dataset& data, const chip::Floorplan& plan,
                    double vth) {
  core::PipelineConfig config;
  config.lambda = 6.0;
  config.sensors_per_core = 2;
  const auto model = core::fit_placement(data, plan, config);
  const auto rates = core::evaluate_prediction_detector(
      data.f_test, model.predict(data.x_test), vth);
  return rates.total_error_rate();
}

int run_injection() {
  namespace fs = std::filesystem;
  set_log_level(LogLevel::kWarn);
  // Miniature platform (2 cores, reduced sample counts) so every scenario
  // can afford its own full recollection.
  core::ExperimentSetup setup = core::small_setup();
  setup.data.warmup_steps = 30;
  setup.data.train_maps_per_benchmark = 40;
  setup.data.test_maps_per_benchmark = 15;
  setup.data.calibration_steps = 80;
  grid::PowerGrid grid(setup.grid);
  chip::Floorplan plan(grid, setup.floorplan);
  auto suite = workload::parsec_like_suite();
  suite.resize(2);
  const double vth = setup.data.emergency_threshold;

  const std::string cache = "inject_dataset.cache";
  fs::remove(cache);

  ResilienceReport clean_report;
  const core::Dataset reference =
      core::load_or_collect(cache, grid, plan, setup.data, suite,
                            &clean_report);
  const double clean_te = placement_te(reference, plan, vth);
  std::printf("== fault injection: clean reference TE = %.6f (cache: %s) "
              "==\n\n",
              clean_te, cache.c_str());

  TablePrinter table({"scenario", "detected as", "recovery", "TE delta",
                      "pass"});
  bool all_pass = true;

  // Cache scenarios: damage the file, confirm try_load flags it, then let
  // load_or_collect recover and compare the end-to-end result.
  const auto cache_scenario = [&](const char* name, auto&& corrupt) {
    corrupt();
    const StatusOr<core::Dataset> direct = core::Dataset::try_load(cache);
    ResilienceReport report;
    const core::Dataset recovered =
        core::load_or_collect(cache, grid, plan, setup.data, suite, &report);
    const double delta =
        std::abs(placement_te(recovered, plan, vth) - clean_te);
    const bool pass =
        !direct.ok() && report.recollects() >= 1 && delta <= 1e-9;
    all_pass = all_pass && pass;
    table.add_row(
        {name,
         direct.ok() ? "load succeeded (BUG)"
                     : error_code_name(direct.status().code()),
         report.recollects() >= 1 ? "recollected + re-cached"
                                  : "NO RECOLLECTION",
         TablePrinter::sci(delta, 2), pass ? "yes" : "NO"});
  };

  cache_scenario("cache: byte flipped mid-file", [&] {
    const auto size = fs::file_size(cache);
    std::fstream f(cache, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  });
  cache_scenario("cache: truncated to 2/3", [&] {
    fs::resize_file(cache, fs::file_size(cache) * 2 / 3);
  });
  // A checksum-valid x_train section that holds only a forged 2^32 x 2^32
  // shape, whose element count overflows to 0: FNV-1a does not stop a
  // forgery, so the loader's bound on counts must.
  cache_scenario("cache: forged x_train shape", [&] {
    std::string image;
    {
      std::ifstream in(cache, std::ios::binary);
      image.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    constexpr std::uint64_t kXTrainTag = 0xD5E70004ULL;
    std::uint64_t header[3];  // tag, payload bytes, checksum
    std::size_t at = 2 * sizeof(std::uint64_t);  // past magic and version
    while (at + sizeof(header) <= image.size()) {
      std::memcpy(header, image.data() + at, sizeof(header));
      if (header[0] == kXTrainTag) break;
      at += sizeof(header) + header[1];
    }
    std::uint64_t forged[] = {kXTrainTag, 16, 0, 1ULL << 32, 1ULL << 32};
    forged[2] = fnv1a64(&forged[3], 16);
    image.replace(at, sizeof(header) + header[1],
                  reinterpret_cast<const char*>(forged), sizeof(forged));
    std::ofstream out(cache, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  });

  // Truncated trace CSV: a row cut mid-stream must surface as corruption
  // (so batch importers can skip the file), never as a shorter trace.
  {
    const std::string trace_path = "inject_trace.csv";
    workload::PowerTrace trace(4);
    linalg::Vector row(4);
    for (std::size_t s = 0; s < 10; ++s) {
      for (std::size_t b = 0; b < 4; ++b)
        row[b] = 1e-3 * static_cast<double>(s * 4 + b + 1);
      trace.append(row);
    }
    trace.save_csv(trace_path);
    std::ifstream in(trace_path, std::ios::binary);
    const std::string contents((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    in.close();
    // Cut at the last comma: the final row keeps too few cells.
    fs::resize_file(trace_path, contents.rfind(','));
    const StatusOr<workload::PowerTrace> loaded =
        workload::PowerTrace::try_load_csv(trace_path);
    const bool pass = !loaded.ok() &&
                      loaded.status().code() == ErrorCode::kCorruption;
    all_pass = all_pass && pass;
    table.add_row({"trace csv: truncated mid-row",
                   loaded.ok() ? "load succeeded (BUG)"
                               : error_code_name(loaded.status().code()),
                   "importer skips the file", "-", pass ? "yes" : "NO"});
    fs::remove(trace_path);
  }

  table.print(std::cout);
  fs::remove(cache);
  std::printf("\n%s\n", all_pass
                            ? "all scenarios recovered; results match the "
                              "clean run within 1e-9"
                            : "SOME SCENARIOS FAILED TO RECOVER");
  return all_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vmap;
  CliArgs args("robustness_noise — prediction/detection vs sensor noise");
  benchutil::add_common_flags(args);
  args.add_flag("sensors", "4", "sensors per core");
  args.add_bool("inject", false,
                "run the runtime fault-injection suite (corrupted, truncated "
                "and forged caches, truncated trace csv) instead of the "
                "noise sweep");
  try {
    if (!args.parse(argc, argv)) return 0;
    if (args.get_bool("inject")) return run_injection();
    const auto platform = benchutil::load_platform(args);
    const auto& data = platform.data;
    const double vth = platform.setup.data.emergency_threshold;

    core::PipelineConfig config;
    config.lambda = 6.0;
    config.sensors_per_core =
        static_cast<std::size_t>(args.get_int("sensors"));
    const auto model = core::fit_placement(data, *platform.floorplan, config);
    const auto& rows = model.sensor_rows();
    const linalg::Matrix x_train = data.x_train.select_rows(rows);
    const linalg::Matrix x_test = data.x_test.select_rows(rows);
    const core::OlsModel clean_model(x_train, data.f_train);

    struct Level {
      const char* name;
      core::SensorNoiseModel noise;
    };
    std::vector<Level> levels;
    levels.push_back({"ideal", {}});
    levels.push_back({"1 mV rms", {.gaussian_sigma = 1e-3}});
    levels.push_back({"2 mV rms + 8-bit ADC",
                      {.gaussian_sigma = 2e-3, .lsb = 1.0 / 256.0}});
    levels.push_back({"5 mV rms + 3 mV offs",
                      {.gaussian_sigma = 5e-3, .offset_sigma = 3e-3}});
    levels.push_back(
        {"10 mV rms", {.gaussian_sigma = 10e-3}});

    std::printf("== robustness: %zu sensors, clean-trained vs "
                "noise-trained ==\n",
                rows.size());
    benchutil::RunReport report("robustness_noise");
    report.scalar("sensors_placed", static_cast<double>(rows.size()));
    report.timing("platform_load", platform.load_ms);
    TablePrinter table({"sensor noise", "clean rel err(%)", "clean TE",
                        "retrained rel err(%)", "retrained TE"});
    std::size_t level_index = 0;
    for (const auto& level : levels) {
      const linalg::Matrix x_test_noisy =
          core::apply_sensor_noise(x_test, level.noise, 101);

      const linalg::Matrix pred_clean = clean_model.predict(x_test_noisy);
      const auto rates_clean =
          core::evaluate_prediction_detector(data.f_test, pred_clean, vth);

      const linalg::Matrix x_train_noisy =
          core::apply_sensor_noise(x_train, level.noise, 202);
      const core::OlsModel retrained(x_train_noisy, data.f_train);
      const linalg::Matrix pred_retrained = retrained.predict(x_test_noisy);
      const auto rates_retrained = core::evaluate_prediction_detector(
          data.f_test, pred_retrained, vth);

      const double rel_clean =
          core::relative_error(data.f_test, pred_clean);
      const double rel_retrained =
          core::relative_error(data.f_test, pred_retrained);
      const std::string tag = "@" + std::to_string(level_index++);
      report.scalar("clean_rel_err" + tag, rel_clean);
      report.scalar("clean_te" + tag, rates_clean.total_error_rate());
      report.scalar("retrained_rel_err" + tag, rel_retrained);
      report.scalar("retrained_te" + tag,
                    rates_retrained.total_error_rate());
      table.add_row(
          {level.name, TablePrinter::fmt(100.0 * rel_clean, 3),
           TablePrinter::fmt(rates_clean.total_error_rate(), 4),
           TablePrinter::fmt(100.0 * rel_retrained, 3),
           TablePrinter::fmt(rates_retrained.total_error_rate(), 4)});
    }
    table.print(std::cout);
    std::printf("\n(noise-aware refits absorb sensor imperfections; the "
                "methodology degrades gracefully until noise reaches the "
                "droop scale)\n");
    benchutil::write_report(args, &platform, report);
    benchutil::print_resilience(platform);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
