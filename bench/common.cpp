#include "common.hpp"

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "linalg/kernels.hpp"
#include "util/atomic_file.hpp"
#include "util/flight_recorder.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace vmap::benchutil {

namespace {

volatile std::sig_atomic_t g_flush_entered = 0;

extern "C" void interrupt_flush_handler(int sig) {
  // One shot: a second signal while flushing falls straight through to the
  // default action instead of re-entering the (unsafe) flush path.
  if (!g_flush_entered) {
    g_flush_entered = 1;
    if (trace_enabled()) {
      const Status st = trace_flush();
      std::fprintf(stderr, "[signal] trace %s\n",
                   st.ok() ? "flushed" : st.to_string().c_str());
    }
    json::Writer metrics_json;
    metrics::snapshot_json(metrics_json);
    std::fprintf(stderr, "[signal] interrupted by signal %d; metrics: %s\n",
                 sig, metrics_json.str().c_str());
    std::fprintf(stderr, "[signal] flight-recorder tail:\n");
    flight::dump(2);
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void install_interrupt_flush() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  std::signal(SIGINT, interrupt_flush_handler);
  std::signal(SIGTERM, interrupt_flush_handler);
  // Fatal-signal dumps (SIGSEGV/SIGABRT) come from the flight recorder:
  // the ring is async-signal dumpable where the trace buffer is not.
  flight::install_crash_dump();
}

void add_common_flags(CliArgs& args) {
  install_interrupt_flush();
  args.add_flag("cache", "vmap_dataset.cache",
                "dataset cache path ('' disables caching)");
  args.add_bool("quick", false,
                "reduced sample counts for fast smoke runs");
  args.add_flag("seed", "20150607", "experiment seed");
  args.add_flag("lambda-scale", "0.10",
                "internal budget per unit of paper lambda");
  args.add_bool("verbose", false, "log collection progress");
  args.add_flag("threads", "0",
                "worker threads for collection/fitting (0 = VMAP_THREADS "
                "env var, else all hardware threads; 1 = serial)");
  args.add_flag("emergency-rate", "0.30",
                "calibrated chip-level emergency base rate (0 = use "
                "--target-droop instead)");
  args.add_flag("target-droop", "0.26",
                "calibrated worst-case droop depth in volts (fallback when "
                "--emergency-rate is 0)");
  args.add_bool("two-layer", false,
                "model a low-resistance top-metal mesh over the device grid "
                "(changes the platform; dataset re-collects)");
  args.add_flag("pad-inductance", "0",
                "package inductance per pad in henries, e.g. 5e-10 "
                "(changes the platform; dataset re-collects)");
  args.add_flag("report", "",
                "write a machine-readable run report (JSON) to this path: "
                "key result scalars, timings, metrics snapshot, resilience "
                "report");
}

Platform load_platform(const CliArgs& args) {
  set_log_level(args.get_bool("verbose") ? LogLevel::kInfo : LogLevel::kWarn);
  set_thread_count(static_cast<std::size_t>(args.get_int("threads")));

  Platform platform;
  platform.setup = core::default_setup();
  platform.setup.data.seed =
      static_cast<std::uint64_t>(args.get_int("seed"));
  platform.setup.data.target_emergency_rate =
      args.get_double("emergency-rate");
  platform.setup.data.target_droop = args.get_double("target-droop");
  platform.setup.grid.two_layer = args.get_bool("two-layer");
  platform.setup.grid.pad_inductance = args.get_double("pad-inductance");
  if (args.get_bool("quick")) {
    platform.setup.data.train_maps_per_benchmark = 80;
    platform.setup.data.test_maps_per_benchmark = 40;
    platform.setup.data.warmup_steps = 150;
    platform.setup.data.calibration_steps = 300;
  }

  platform.grid = std::make_unique<grid::PowerGrid>(platform.setup.grid);
  platform.floorplan = std::make_unique<chip::Floorplan>(
      *platform.grid, platform.setup.floorplan);
  platform.suite = workload::parsec_like_suite();

  Timer timer;
  platform.data =
      core::load_or_collect(args.get("cache"), *platform.grid,
                            *platform.floorplan, platform.setup.data,
                            platform.suite, platform.report.get());
  platform.load_ms = timer.millis();
  std::fprintf(stderr,
               "[platform] M=%zu candidates, K=%zu blocks, N_train=%zu, "
               "N_test=%zu (%.1f s)\n",
               platform.data.num_candidates(), platform.data.num_blocks(),
               platform.data.x_train.cols(), platform.data.x_test.cols(),
               timer.seconds());
  return platform;
}

void print_resilience(const Platform& platform) {
  if (!platform.report) return;
  if (platform.report->clean()) {
    std::fprintf(stderr, "[resilience] all clean: no retries, fallbacks, or "
                         "recollections\n");
    return;
  }
  std::fprintf(stderr, "[resilience] %s\n",
               platform.report->summary().c_str());
}

void add_backend_flags(CliArgs& args) {
  args.add_flag("selection", "group_lasso",
                "sensor-selection backend (see core/backend.hpp; "
                "\"group_lasso\" reproduces the paper)");
  args.add_flag("prediction", "ols",
                "voltage-prediction backend (\"ols\" reproduces the paper, "
                "\"spatial\" is the geometry-feature ridge surrogate)");
}

void apply_backend_flags(const CliArgs& args, core::PipelineConfig& config,
                         RunReport& report) {
  config.selection = args.get("selection");
  config.prediction = args.get("prediction");
  report.tag("selection", config.selection);
  report.tag("prediction", config.prediction);
}

double scaled_lambda(const CliArgs& args, double paper_lambda) {
  return paper_lambda * args.get_double("lambda-scale");
}

namespace {

void write_pairs(json::Writer& w, const char* name,
                 const std::vector<std::pair<std::string, double>>& pairs) {
  w.key(name).begin_object();
  for (const auto& [key, value] : pairs) w.field(key, value);
  w.end_object();
}

/// Peak resident set size of this process so far (MB; ru_maxrss is KiB).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

double calibration_ms() {
  // A serially dependent FMA chain: fixed work, one thread, no memory
  // traffic — proportional to single-core speed on any machine. The
  // volatile sink keeps the loop alive under -O2.
  double best = 0.0;
  for (int run = 0; run < 3; ++run) {
    Timer t;
    double acc = 1.0;
    for (int i = 0; i < 20000000; ++i) acc = acc * 1.0000000001 + 1e-12;
    volatile double sink = acc;
    (void)sink;
    const double ms = t.millis();
    if (run == 0 || ms < best) best = ms;
  }
  return best;
}

void write_report(const CliArgs& args, const Platform* platform,
                  const RunReport& report) {
  const std::string path = args.get("report");
  if (path.empty()) return;

  json::Writer w;
  w.begin_object().field("schema", 1).field("bench", report.bench);
  if (platform) {
    char hash[32];
    std::snprintf(hash, sizeof(hash), "0x%016llx",
                  static_cast<unsigned long long>(platform->data.platform));
    w.field("platform_hash", hash).field("seed", platform->setup.data.seed);
  }
  w.field("threads", thread_count()).field("calibration_ms", calibration_ms());
  w.field("simd", linalg::kern::simd_level_name(linalg::kern::simd_level()));
  w.field("peak_rss_mb", peak_rss_mb());

  w.key("tags").begin_object();
  for (const auto& [key, value] : report.tags) w.field(key, value);
  w.end_object();
  write_pairs(w, "scalars", report.scalars);
  write_pairs(w, "timings_ms", report.timings_ms);

  // Resilience: the counters the gate watches plus the full event list so
  // a degraded run is diagnosable from the artifact alone.
  const ResilienceReport clean;
  const ResilienceReport& r =
      platform && platform->report ? *platform->report : clean;
  w.key("resilience").begin_object().field("clean", r.clean());
  w.field("retries", r.retries()).field("fallbacks", r.fallbacks());
  w.field("recollects", r.recollects()).key("events").begin_array();
  for (const ResilienceEvent& e : r.events()) {
    w.begin_object().field("stage", e.stage);
    w.field("action", resilience_action_name(e.action));
    w.field("detail", e.detail).end_object();
  }
  w.end_array().end_object();

  metrics::snapshot_json(w.key("metrics"));
  const char* trace_env = std::getenv("VMAP_TRACE");
  w.field("trace", trace_env ? trace_env : "").end_object();

  const Status written = write_file_atomic(path, w.str());
  if (!written.ok())
    throw std::runtime_error("cannot write run report: " +
                             written.to_string());
  std::fprintf(stderr, "[report] wrote %s\n", path.c_str());
}

}  // namespace vmap::benchutil
