#include "core/dataset.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <span>

#include "chip/critical_nodes.hpp"
#include "grid/transient.hpp"
#include "linalg/kernels.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/sectioned_file.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"
#include "workload/activity.hpp"
#include "workload/power_model.hpp"

namespace vmap::core {

linalg::Matrix slice_cols(const linalg::Matrix& m, std::size_t begin,
                          std::size_t end) {
  VMAP_REQUIRE(begin <= end && end <= m.cols(), "column slice out of range");
  linalg::Matrix out(m.rows(), end - begin);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* src = m.row_data(r) + begin;
    double* dst = out.row_data(r);
    for (std::size_t c = 0; c < end - begin; ++c) dst[c] = src[c];
  }
  return out;
}

linalg::Matrix Dataset::x_train_for(std::size_t bench) const {
  VMAP_REQUIRE(bench < benchmarks.size(), "benchmark index out of range");
  return slice_cols(x_train, benchmarks[bench].train_begin,
                    benchmarks[bench].train_end);
}
linalg::Matrix Dataset::x_test_for(std::size_t bench) const {
  VMAP_REQUIRE(bench < benchmarks.size(), "benchmark index out of range");
  return slice_cols(x_test, benchmarks[bench].test_begin,
                    benchmarks[bench].test_end);
}
linalg::Matrix Dataset::f_test_for(std::size_t bench) const {
  VMAP_REQUIRE(bench < benchmarks.size(), "benchmark index out of range");
  return slice_cols(f_test, benchmarks[bench].test_begin,
                    benchmarks[bench].test_end);
}

namespace {
/// Steps a panel advances in one turn on a thread before it goes back to
/// the queue: enough to amortize reloading its state into the thread's
/// cache, few enough that the last turns end close together.
constexpr std::size_t kTurnSteps = 32;

/// Lanes of a full panel: the multiple of the solve's lane width nearest
/// n / threads (at least one width), so the panels split evenly over the
/// threads.
std::size_t panel_width(std::size_t benchmarks, std::size_t threads) {
  constexpr std::size_t w = linalg::kern::kPanelWidth;
  return w * std::max<std::size_t>(
                 1, (benchmarks + w * threads / 2) / (w * threads));
}

/// Consecutive benchmarks stepped as the lanes of one simulator.
struct Panel {
  Panel(const grid::PowerGrid& grid, double dt,
        std::shared_ptr<const sparse::SkylineCholesky> factor,
        std::size_t lanes)
      : sim(grid, dt, std::move(factor), lanes) {}

  std::size_t first = 0;  ///< suite index of lane 0
  grid::TransientSim sim;
  std::vector<workload::ActivityGenerator> generators;  ///< one per lane
  std::vector<linalg::Vector> currents;  ///< per-lane block currents
  std::size_t steps = 0;                 ///< steps taken so far
  double busy_s = 0.0;                   ///< time spent in its turns
};

/// Core slot owning a grid node (nodes are partitioned into slot
/// rectangles, margins included).
std::size_t core_of_node(const chip::Floorplan& floorplan, std::size_t node) {
  const auto& gc = floorplan.grid().config();
  const auto& fc = floorplan.config();
  const auto [x, y] = floorplan.grid().node_xy(node);
  const std::size_t cx = std::min(x / (gc.nx / fc.cores_x), fc.cores_x - 1);
  const std::size_t cy = std::min(y / (gc.ny / fc.cores_y), fc.cores_y - 1);
  return cy * fc.cores_x + cx;
}
}  // namespace

std::vector<std::size_t> Dataset::candidate_rows_for_core(
    const chip::Floorplan& floorplan, std::size_t core) const {
  VMAP_REQUIRE(core < floorplan.core_count(), "core index out of range");
  std::vector<std::size_t> rows;
  for (std::size_t row = 0; row < candidate_nodes.size(); ++row)
    if (core_of_node(floorplan, candidate_nodes[row]) == core)
      rows.push_back(row);
  return rows;
}

std::vector<std::size_t> Dataset::critical_rows_for_core(
    const chip::Floorplan& floorplan, std::size_t core) const {
  VMAP_REQUIRE(core < floorplan.core_count(), "core index out of range");
  VMAP_REQUIRE(critical_block.size() == critical_nodes.size(),
               "critical_block mapping not populated");
  std::vector<std::size_t> rows;
  for (std::size_t row = 0; row < critical_block.size(); ++row)
    if (floorplan.block(critical_block[row]).core == core)
      rows.push_back(row);
  return rows;
}

std::uint64_t platform_hash(const grid::GridConfig& g,
                            const chip::FloorplanConfig& f) {
  // FNV-1a over every numeric field of both configs, chained through the
  // shared util/hash.hpp implementation (identical values to the historic
  // inline loop, so existing caches stay valid).
  std::uint64_t h = kFnv1a64Seed;
  auto mix_u64 = [&h](std::uint64_t v) { h = fnv1a64(&v, sizeof(v), h); };
  auto mix_f64 = [&h](double v) { h = fnv1a64(&v, sizeof(v), h); };
  mix_u64(g.nx);
  mix_u64(g.ny);
  mix_f64(g.pitch_um);
  mix_f64(g.segment_resistance);
  mix_f64(g.node_capacitance);
  mix_f64(g.pad_resistance);
  mix_f64(g.pad_inductance);
  mix_f64(g.vdd);
  mix_u64(g.pad_spacing);
  mix_u64(g.two_layer ? 1 : 0);
  mix_u64(g.top_pitch);
  mix_f64(g.top_segment_resistance);
  mix_f64(g.via_resistance);
  mix_f64(g.top_node_capacitance);
  mix_u64(f.cores_x);
  mix_u64(f.cores_y);
  mix_u64(f.core_margin);
  // Mixed only when non-square so every historic (square-lattice) cache
  // keeps its hash; any other arrangement keys a distinct dataset.
  if (g.pad_arrangement != grid::PadArrangement::kSquare)
    mix_u64(static_cast<std::uint64_t>(g.pad_arrangement));
  return h;
}

DataCollector::DataCollector(const grid::PowerGrid& grid,
                             const chip::Floorplan& floorplan,
                             DataConfig config)
    : grid_(grid), floorplan_(floorplan), config_(config) {
  VMAP_REQUIRE(config_.dt > 0.0, "dt must be positive");
  VMAP_REQUIRE(config_.map_stride >= 1, "map stride must be >= 1");
  VMAP_REQUIRE(config_.candidate_stride >= 1,
               "candidate stride must be >= 1");
  VMAP_REQUIRE(config_.train_maps_per_benchmark >= 2,
               "need at least two training maps per benchmark");
}

Dataset DataCollector::collect(
    const std::vector<workload::BenchmarkProfile>& suite) const {
  VMAP_REQUIRE(!suite.empty(), "benchmark suite is empty");
  TraceSpan span("dataset.collect");
  metrics::counter("dataset.collections").add();
  Timer total_timer;
  Dataset data;
  data.config = config_;
  data.workload_hash = workload::suite_hash(suite);
  data.platform = platform_hash(grid_.config(), floorplan_.config());

  // Candidate nodes: a lattice subsample (stride on the tile coordinates
  // keeps spatial coverage uniform) over the BA — and over the FA too when
  // include_fa_candidates is set (§3.2's extension).
  for (std::size_t node = 0; node < grid_.device_node_count(); ++node) {
    if (floorplan_.is_fa_node(node) && !config_.include_fa_candidates)
      continue;
    const auto [x, y] = grid_.node_xy(node);
    if (x % config_.candidate_stride == 0 && y % config_.candidate_stride == 0)
      data.candidate_nodes.push_back(node);
  }
  VMAP_REQUIRE(!data.candidate_nodes.empty(),
               "candidate stride removed every candidate node");

  // One factorization of the step matrix serves the calibration pass and
  // every panel's simulator. Every simulator reads its loads per block and
  // keeps its voltages in the factor's row order, so the sampled nodes are
  // read by factor row.
  const auto factor = grid::TransientSim::factorize(grid_, config_.dt);
  const std::vector<std::size_t>& row_of = factor->inverse_permutation();
  const std::size_t n_nodes = grid_.node_count();

  // --- Calibration pass (unit current scale). The grid is linear, so the
  // per-node droop ranking and the worst-droop magnitude from a unit-scale
  // run determine both the critical nodes and the absolute scale.
  {
    TraceSpan calib_span("dataset.calibration");
    grid::TransientSim sim(grid_, config_.dt, factor);
    const workload::PowerModel unit_model(floorplan_, /*current_scale=*/1.0);
    sim.set_block_loads(floorplan_.node_blocks(), unit_model.leakage());
    workload::ActivityGenerator generator(floorplan_, suite.front(),
                                          Rng(config_.seed ^ 0xCA11B8A7E));
    linalg::Vector currents(floorplan_.block_count());
    std::vector<double> row_min(n_nodes,
                                std::numeric_limits<double>::infinity());
    std::vector<double> droop_per_step;
    droop_per_step.reserve(config_.calibration_steps);
    for (std::size_t s = 0; s < config_.calibration_steps; ++s) {
      unit_model.to_block_currents(generator.step(), currents);
      sim.step_blocks(std::span<const linalg::Vector>(&currents, 1));
      const double* v = sim.rows();  // one lane: row r at [r]
      double lowest = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < n_nodes; ++r) {
        if (v[r] < row_min[r]) row_min[r] = v[r];
        if (v[r] < lowest) lowest = v[r];
      }
      droop_per_step.push_back(grid_.config().vdd - lowest);
    }
    std::sort(droop_per_step.begin(), droop_per_step.end());
    const double worst_droop = droop_per_step.back();
    VMAP_REQUIRE(worst_droop > 0.0, "calibration produced no droop");

    if (config_.target_emergency_rate > 0.0) {
      // Scale so that target_emergency_rate of the calibration steps would
      // cross the threshold: margin = scale * droop-quantile(1 - rate).
      VMAP_REQUIRE(config_.target_emergency_rate < 1.0,
                   "target emergency rate must be in (0, 1)");
      const double margin =
          grid_.config().vdd - config_.emergency_threshold;
      VMAP_REQUIRE(margin > 0.0,
                   "emergency threshold must be below VDD");
      const double q = 1.0 - config_.target_emergency_rate;
      const auto index = static_cast<std::size_t>(
          q * static_cast<double>(droop_per_step.size() - 1));
      // Guard: an almost-flat calibration trace would blow the scale up.
      const double quantile_droop =
          std::max(droop_per_step[index], 0.05 * worst_droop);
      data.current_scale = margin / quantile_droop;
    } else {
      data.current_scale = config_.target_droop / worst_droop;
    }
    linalg::Vector min_voltage(n_nodes);
    for (std::size_t node = 0; node < n_nodes; ++node)
      min_voltage[node] = row_min[row_of[node]];
    const chip::CriticalSet critical = chip::select_critical_nodes_n(
        floorplan_, min_voltage, config_.critical_nodes_per_block);
    data.critical_nodes = critical.nodes;
    data.critical_block = critical.blocks;
    VMAP_LOG(kInfo) << "calibration: scale " << data.current_scale
                    << ", worst unit droop " << worst_droop << " V";
  }

  const std::size_t n_benchmarks = suite.size();
  const std::size_t train_maps = config_.train_maps_per_benchmark;
  const std::size_t train_total = n_benchmarks * train_maps;
  const std::size_t test_total =
      n_benchmarks * config_.test_maps_per_benchmark;
  const std::size_t m_count = data.candidate_nodes.size();
  const std::size_t k_count = data.critical_nodes.size();

  data.x_train = linalg::Matrix(m_count, train_total);
  data.f_train = linalg::Matrix(k_count, train_total);
  data.x_test = linalg::Matrix(m_count, test_total);
  data.f_test = linalg::Matrix(k_count, test_total);

  const workload::PowerModel model(floorplan_, data.current_scale);
  std::vector<std::size_t> candidate_rows, critical_rows;
  for (std::size_t node : data.candidate_nodes)
    candidate_rows.push_back(row_of[node]);
  for (std::size_t node : data.critical_nodes)
    critical_rows.push_back(row_of[node]);

  // Benchmarks are mutually independent: each gets its own activity RNG
  // (derived from the seed and the benchmark index alone), its own
  // simulator lane, and writes a disjoint column range of the shared
  // matrices at offsets fixed by the canonical suite order.
  std::vector<BenchmarkSlice> slices(n_benchmarks);
  for (std::size_t b = 0; b < n_benchmarks; ++b) {
    BenchmarkSlice& slice = slices[b];
    slice.name = suite[b].name;
    slice.train_begin = b * train_maps;
    slice.train_end = slice.train_begin + train_maps;
    slice.test_begin = b * config_.test_maps_per_benchmark;
    slice.test_end = slice.test_begin + config_.test_maps_per_benchmark;
  }
  // Keep every map_stride-th step after the warm-up, starting with the
  // first; each kept map goes straight into its benchmark's column.
  // Time-split: earlier maps train, later maps test (no leakage).
  const std::size_t maps_needed =
      train_maps + config_.test_maps_per_benchmark;
  const std::size_t total_steps =
      config_.warmup_steps + (maps_needed - 1) * config_.map_stride + 1;

  // Consecutive benchmarks form panels stepped in lockstep as the lanes of
  // one simulator on the shared factor, one pass over it per step for all
  // of them. Full panels hold a multiple of the solve's lane width, sized
  // so the panels split evenly over the pool's threads; the last panel
  // takes the remainder.
  const std::size_t threads = thread_count();
  const std::size_t width = panel_width(n_benchmarks, threads);
  std::vector<Panel> panels;
  panels.reserve((n_benchmarks + width - 1) / width);
  for (std::size_t first = 0; first < n_benchmarks; first += width) {
    const std::size_t lanes = std::min(width, n_benchmarks - first);
    Panel& panel = panels.emplace_back(grid_, config_.dt, factor, lanes);
    panel.first = first;
    panel.sim.set_block_loads(floorplan_.node_blocks(), model.leakage());
    panel.generators.reserve(lanes);
    for (std::size_t c = 0; c < lanes; ++c)
      panel.generators.emplace_back(
          floorplan_, suite[first + c],
          Rng(config_.seed + 0x9E3779B9 * (first + c + 1)));
    panel.currents.assign(lanes, linalg::Vector(floorplan_.block_count()));
  }

  // One turn advances a panel by up to kTurnSteps steps.
  const auto take_turn = [&](Panel& panel) {
    TraceSpan turn_span("dataset.collect_turn");
    Timer turn_timer;
    const std::size_t lanes = panel.sim.lanes();
    const std::size_t end =
        std::min(panel.steps + kTurnSteps, total_steps);
    std::vector<std::size_t> dst(lanes);
    for (; panel.steps < end; ++panel.steps) {
      for (std::size_t c = 0; c < lanes; ++c)
        model.to_block_currents(panel.generators[c].step(),
                                panel.currents[c]);
      panel.sim.step_blocks(panel.currents);
      if (panel.steps < config_.warmup_steps ||
          (panel.steps - config_.warmup_steps) % config_.map_stride != 0)
        continue;
      const std::size_t map =
          (panel.steps - config_.warmup_steps) / config_.map_stride;
      const bool train = map < train_maps;
      linalg::Matrix& x = train ? data.x_train : data.x_test;
      linalg::Matrix& f = train ? data.f_train : data.f_test;
      for (std::size_t c = 0; c < lanes; ++c) {
        const BenchmarkSlice& slice = slices[panel.first + c];
        dst[c] = train ? slice.train_begin + map
                       : slice.test_begin + map - train_maps;
      }
      const double* v = panel.sim.rows();
      const std::size_t stride = panel.sim.stride();
      for (std::size_t r = 0; r < m_count; ++r)
        for (std::size_t c = 0; c < lanes; ++c)
          x(r, dst[c]) = v[candidate_rows[r] * stride + c];
      for (std::size_t r = 0; r < k_count; ++r)
        for (std::size_t c = 0; c < lanes; ++c)
          f(r, dst[c]) = v[critical_rows[r] * stride + c];
    }
    panel.busy_s += turn_timer.seconds();
    if (panel.steps == total_steps)
      VMAP_LOG(kInfo) << suite[panel.first].name << " + " << lanes - 1
                      << " more: " << maps_needed << " maps each in "
                      << panel.busy_s << " s";
  };

  // Threads take panels from a shared queue a turn at a time and put an
  // unfinished one back at the end, so every thread stays busy to the end
  // however the lanes divide. A panel only ever runs on one thread at a
  // time and its steps run in order, so every lane is bit-identical to a
  // one-lane simulation and the dataset is the same at every thread count.
  std::mutex queue_mutex;
  std::deque<std::size_t> queue;
  for (std::size_t p = 0; p < panels.size(); ++p) queue.push_back(p);
  parallel_for(0, std::min(threads, panels.size()), [&](std::size_t) {
    std::size_t p = panels.size();  // none yet
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(queue_mutex);
        if (p < panels.size() && panels[p].steps < total_steps)
          queue.push_back(p);
        if (queue.empty()) return;
        p = queue.front();
        queue.pop_front();
      }
      take_turn(panels[p]);
    }
  });
  data.benchmarks = std::move(slices);

  metrics::gauge("dataset.collect_seconds").set(total_timer.seconds());
  VMAP_LOG(kInfo) << "dataset collected: M=" << m_count << " K=" << k_count
                  << " N_train=" << train_total << " N_test=" << test_total
                  << " in " << total_timer.seconds() << " s";
  return data;
}

// --- Serialization -------------------------------------------------------

namespace {
constexpr std::uint64_t kMagic = 0x564D415044534554ULL;  // "VMAPDSET"
// v7: sectioned layout (util/sectioned_file) with a per-section FNV-1a
// checksum and atomic saves. v6 and older caches fail the version check
// and are transparently recollected.
constexpr std::uint64_t kVersion = 7;

void write_matrix(SectionedWriter& out, const linalg::Matrix& m) {
  out.put_u64(m.rows());
  out.put_u64(m.cols());
  out.put_bytes(m.data(), m.rows() * m.cols() * sizeof(double));
}
/// Reads a matrix of `rows` rows; any other shape fails the cursor.
linalg::Matrix read_matrix(PayloadCursor& in, std::size_t rows) {
  const std::uint64_t stored_rows = in.u64();
  const std::uint64_t cols = in.u64();
  // rows <= fit / cols keeps rows * cols (and its byte count) from
  // overflowing.
  if (stored_rows != rows ||
      (cols != 0 && rows > in.bytes_left() / sizeof(double) / cols)) {
    in.fail();
    return {};
  }
  linalg::Matrix m(rows, cols);
  in.bytes(m.data(), rows * cols * sizeof(double));
  return m;
}
void write_config(SectionedWriter& out, const DataConfig& c) {
  out.put_f64(c.dt);
  out.put_u64(c.warmup_steps);
  out.put_u64(c.train_maps_per_benchmark);
  out.put_u64(c.test_maps_per_benchmark);
  out.put_u64(c.map_stride);
  out.put_u64(c.candidate_stride);
  out.put_u64(c.critical_nodes_per_block);
  out.put_u64(c.include_fa_candidates ? 1 : 0);
  out.put_f64(c.target_emergency_rate);
  out.put_f64(c.target_droop);
  out.put_f64(c.emergency_threshold);
  out.put_u64(c.calibration_steps);
  out.put_u64(c.seed);
}
DataConfig read_config(PayloadCursor& in) {
  DataConfig c;
  c.dt = in.f64();
  c.warmup_steps = in.u64();
  c.train_maps_per_benchmark = in.u64();
  c.test_maps_per_benchmark = in.u64();
  c.map_stride = in.u64();
  c.candidate_stride = in.u64();
  c.critical_nodes_per_block = in.u64();
  c.include_fa_candidates = in.u64() != 0;
  c.target_emergency_rate = in.f64();
  c.target_droop = in.f64();
  c.emergency_threshold = in.f64();
  c.calibration_steps = in.u64();
  c.seed = in.u64();
  return c;
}

bool config_equal(const DataConfig& a, const DataConfig& b) {
  return a.dt == b.dt && a.warmup_steps == b.warmup_steps &&
         a.train_maps_per_benchmark == b.train_maps_per_benchmark &&
         a.test_maps_per_benchmark == b.test_maps_per_benchmark &&
         a.map_stride == b.map_stride &&
         a.candidate_stride == b.candidate_stride &&
         a.critical_nodes_per_block == b.critical_nodes_per_block &&
         a.include_fa_candidates == b.include_fa_candidates &&
         a.target_emergency_rate == b.target_emergency_rate &&
         a.target_droop == b.target_droop &&
         a.emergency_threshold == b.emergency_threshold &&
         a.calibration_steps == b.calibration_steps && a.seed == b.seed;
}

// Section tags, in the fixed file order. Tags double as a structural check:
// a reader finding the wrong tag knows the file is corrupt, not merely
// truncated.
constexpr std::uint64_t kSecMeta = 0xD5E70001ULL;        // config + hashes
constexpr std::uint64_t kSecCandidates = 0xD5E70002ULL;  // candidate nodes
constexpr std::uint64_t kSecCriticals = 0xD5E70003ULL;   // critical nodes/blocks
constexpr std::uint64_t kSecXTrain = 0xD5E70004ULL;
constexpr std::uint64_t kSecFTrain = 0xD5E70005ULL;
constexpr std::uint64_t kSecXTest = 0xD5E70006ULL;
constexpr std::uint64_t kSecFTest = 0xD5E70007ULL;
constexpr std::uint64_t kSecBenchmarks = 0xD5E70008ULL;
}  // namespace

Status Dataset::try_save(const std::string& path) const {
  // The whole image is built in memory and written atomically: a crash can
  // at worst leave a stale .tmp file behind, never a torn cache under the
  // real name, and a completed save survives the crash.
  SectionedWriter out(kMagic, kVersion);
  out.begin_section(kSecMeta);
  write_config(out, config);
  out.put_u64(workload_hash);
  out.put_u64(platform);
  out.put_f64(current_scale);
  out.begin_section(kSecCandidates);
  out.put_indices(candidate_nodes);
  out.begin_section(kSecCriticals);
  out.put_indices(critical_nodes);
  out.put_indices(critical_block);
  const std::pair<std::uint64_t, const linalg::Matrix*> matrices[] = {
      {kSecXTrain, &x_train},
      {kSecFTrain, &f_train},
      {kSecXTest, &x_test},
      {kSecFTest, &f_test}};
  for (const auto& [tag, m] : matrices) {
    out.begin_section(tag);
    write_matrix(out, *m);
  }
  out.begin_section(kSecBenchmarks);
  out.put_u64(benchmarks.size());
  for (const auto& b : benchmarks) {
    out.put_string(b.name);
    out.put_u64(b.train_begin);
    out.put_u64(b.train_end);
    out.put_u64(b.test_begin);
    out.put_u64(b.test_end);
  }
  return out.write(path);
}

void Dataset::save(const std::string& path) const {
  const Status status = try_save(path);
  if (!status.ok()) throw StatusError(status);
}

StatusOr<Dataset> Dataset::try_load(const std::string& path) {
  StatusOr<SectionedReader> file =
      SectionedReader::open(path, "dataset cache", kMagic, kVersion);
  if (!file.ok()) return file.status();
  Dataset d;
  Status st = file->section(kSecMeta, "meta", [&](PayloadCursor& s) {
    d.config = read_config(s);
    d.workload_hash = s.u64();
    d.platform = s.u64();
    d.current_scale = s.f64();
  });
  if (!st.ok()) return st;
  st = file->section(kSecCandidates, "candidate", [&](PayloadCursor& s) {
    d.candidate_nodes = s.indices();
  });
  if (!st.ok()) return st;
  st = file->section(kSecCriticals, "critical-node", [&](PayloadCursor& s) {
    d.critical_nodes = s.indices();
    d.critical_block = s.indices();
  });
  if (!st.ok()) return st;

  // Each matrix has one row per candidate (x) or critical node (f), and
  // x and f agree on the sample count: a shape that disagrees is a
  // malformed file, even when every count fits its section.
  const struct {
    std::uint64_t tag;
    linalg::Matrix* dst;
    const char* name;
    std::size_t rows;
  } matrix_sections[] = {
      {kSecXTrain, &d.x_train, "x_train", d.candidate_nodes.size()},
      {kSecFTrain, &d.f_train, "f_train", d.critical_nodes.size()},
      {kSecXTest, &d.x_test, "x_test", d.candidate_nodes.size()},
      {kSecFTest, &d.f_test, "f_test", d.critical_nodes.size()},
  };
  for (const auto& sec : matrix_sections) {
    st = file->section(sec.tag, sec.name, [&](PayloadCursor& s) {
      *sec.dst = read_matrix(s, sec.rows);
    });
    if (!st.ok()) return st;
  }
  if (d.f_train.cols() != d.x_train.cols() ||
      d.f_test.cols() != d.x_test.cols())
    return Status::Corruption("dataset cache sample counts disagree: " + path);

  st = file->section(kSecBenchmarks, "benchmark", [&](PayloadCursor& s) {
    const std::uint64_t nb = s.u64();
    for (std::uint64_t i = 0; i < nb && s.ok(); ++i) {
      BenchmarkSlice slice;
      slice.name = s.string();
      slice.train_begin = s.u64();
      slice.train_end = s.u64();
      slice.test_begin = s.u64();
      slice.test_end = s.u64();
      d.benchmarks.push_back(std::move(slice));
    }
  });
  if (!st.ok()) return st;
  st = file->finish();
  if (!st.ok()) return st;
  return d;
}

Dataset Dataset::load(const std::string& path) {
  StatusOr<Dataset> d = try_load(path);
  if (!d.ok()) throw StatusError(d.status());
  return std::move(d).value();
}

Dataset load_or_collect(const std::string& cache_path,
                        const grid::PowerGrid& grid,
                        const chip::Floorplan& floorplan,
                        const DataConfig& config,
                        const std::vector<workload::BenchmarkProfile>& suite,
                        ResilienceReport* report) {
  static metrics::Counter& hits = metrics::counter("dataset.cache_hits");
  static metrics::Counter& misses = metrics::counter("dataset.cache_misses");
  if (!cache_path.empty()) {
    std::ifstream probe(cache_path, std::ios::binary);
    if (probe) {
      probe.close();
      TraceSpan load_span("dataset.cache_load");
      StatusOr<Dataset> loaded = Dataset::try_load(cache_path);
      if (loaded.ok()) {
        Dataset& d = loaded.value();
        const bool shape_ok =
            d.benchmarks.size() == suite.size() &&
            !d.critical_nodes.empty() &&
            d.critical_block.size() == d.critical_nodes.size() &&
            (d.candidate_nodes.empty() ||
             d.candidate_nodes.back() < grid.node_count());
        if (shape_ok && config_equal(d.config, config) &&
            d.workload_hash == workload::suite_hash(suite) &&
            d.platform ==
                platform_hash(grid.config(), floorplan.config())) {
          hits.add();
          VMAP_LOG(kInfo) << "loaded dataset cache " << cache_path;
          return std::move(d);
        }
        VMAP_LOG(kWarn) << "dataset cache " << cache_path
                        << " does not match the configuration; re-collecting";
        if (report)
          report->record("dataset_cache", ResilienceAction::kRecollect,
                         "cache does not match the configuration; "
                         "re-collecting",
                         ErrorCode::kInvalidArgument);
      } else {
        VMAP_LOG(kWarn) << "dataset cache unusable ("
                        << loaded.status().to_string() << "); re-collecting";
        if (report)
          report->record("dataset_cache", ResilienceAction::kRecollect,
                         "cache unusable (" + loaded.status().to_string() +
                             "); re-collecting",
                         loaded.status().code());
      }
    }
  }
  misses.add();
  DataCollector collector(grid, floorplan, config);
  Dataset d = collector.collect(suite);
  if (!cache_path.empty()) {
    // A failed save must never kill a run that already holds a good
    // dataset; the next run simply recollects.
    TraceSpan save_span("dataset.cache_save");
    const Status saved = d.try_save(cache_path);
    if (saved.ok()) {
      VMAP_LOG(kInfo) << "saved dataset cache " << cache_path;
    } else {
      VMAP_LOG(kWarn) << "dataset cache save failed ("
                      << saved.to_string() << "); continuing uncached";
      if (report)
        report->record("dataset_cache", ResilienceAction::kNote,
                       "cache save failed (" + saved.to_string() +
                           "); continuing uncached",
                       saved.code());
    }
  }
  return d;
}

}  // namespace vmap::core
