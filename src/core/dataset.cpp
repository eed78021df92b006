#include "core/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "chip/critical_nodes.hpp"
#include "grid/transient.hpp"
#include "util/assert.hpp"
#include "util/atomic_file.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
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
linalg::Matrix Dataset::f_train_for(std::size_t bench) const {
  VMAP_REQUIRE(bench < benchmarks.size(), "benchmark index out of range");
  return slice_cols(f_train, benchmarks[bench].train_begin,
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

  // --- Calibration pass (unit current scale). The grid is linear, so the
  // per-node droop ranking and the worst-droop magnitude from a unit-scale
  // run determine both the critical nodes and the absolute scale.
  {
    TraceSpan calib_span("dataset.calibration");
    grid::TransientSim sim(grid_, config_.dt);
    workload::PowerModel unit_model(floorplan_, /*current_scale=*/1.0);
    workload::ActivityGenerator generator(floorplan_, suite.front(),
                                          Rng(config_.seed ^ 0xCA11B8A7E));
    linalg::Vector currents(grid_.node_count());
    linalg::Vector min_voltage(grid_.node_count(),
                               std::numeric_limits<double>::infinity());
    std::vector<double> droop_per_step;
    droop_per_step.reserve(config_.calibration_steps);
    for (std::size_t s = 0; s < config_.calibration_steps; ++s) {
      unit_model.to_node_currents(generator.step(), currents);
      const auto& v = sim.step(currents);
      for (std::size_t i = 0; i < v.size(); ++i)
        if (v[i] < min_voltage[i]) min_voltage[i] = v[i];
      droop_per_step.push_back(grid_.config().vdd - v.min());
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
    const chip::CriticalSet critical = chip::select_critical_nodes_n(
        floorplan_, min_voltage, config_.critical_nodes_per_block);
    data.critical_nodes = critical.nodes;
    data.critical_block = critical.blocks;
    VMAP_LOG(kInfo) << "calibration: scale " << data.current_scale
                    << ", worst unit droop " << worst_droop << " V";
  }

  const std::size_t n_benchmarks = suite.size();
  const std::size_t train_total =
      n_benchmarks * config_.train_maps_per_benchmark;
  const std::size_t test_total =
      n_benchmarks * config_.test_maps_per_benchmark;
  const std::size_t m_count = data.candidate_nodes.size();
  const std::size_t k_count = data.critical_nodes.size();

  data.x_train = linalg::Matrix(m_count, train_total);
  data.f_train = linalg::Matrix(k_count, train_total);
  data.x_test = linalg::Matrix(m_count, test_total);
  data.f_test = linalg::Matrix(k_count, test_total);

  workload::PowerModel model(floorplan_, data.current_scale);

  // Benchmarks are mutually independent: each gets its own activity RNG
  // (derived from the seed and the benchmark index alone), its own
  // simulator lane, and writes a disjoint column range of the shared
  // matrices at offsets fixed by the canonical suite order. Chunking uses
  // the shared work-quantum heuristic capped at one chunk per pool thread,
  // and each chunk steps its benchmarks in lockstep as the lanes of one
  // transient engine: one factorization, and one pass over it per step for
  // all of them. Every lane is bit-identical to a one-lane simulation, so
  // at any thread count (any lane grouping) the dataset is bit-identical to
  // the serial benchmark-by-benchmark loop.
  std::vector<BenchmarkSlice> slices(n_benchmarks);
  for (std::size_t b = 0; b < n_benchmarks; ++b) {
    BenchmarkSlice& slice = slices[b];
    slice.name = suite[b].name;
    slice.train_begin = b * config_.train_maps_per_benchmark;
    slice.train_end = slice.train_begin + config_.train_maps_per_benchmark;
    slice.test_begin = b * config_.test_maps_per_benchmark;
    slice.test_end = slice.test_begin + config_.test_maps_per_benchmark;
  }
  const std::size_t maps_needed =
      config_.train_maps_per_benchmark + config_.test_maps_per_benchmark;
  const std::size_t steps_per_benchmark =
      config_.warmup_steps + maps_needed * config_.map_stride;
  const double bench_flops = static_cast<double>(steps_per_benchmark) *
                             static_cast<double>(grid_.node_count()) * 100.0;
  const std::size_t chunks =
      recommended_chunks(n_benchmarks, bench_flops, /*max_per_thread=*/1);
  parallel_for(0, chunks, [&](std::size_t chunk) {
    Timer chunk_timer;
    const std::size_t b_begin = chunk * n_benchmarks / chunks;
    const std::size_t lanes = (chunk + 1) * n_benchmarks / chunks - b_begin;
    TraceSpan chunk_span("dataset.collect_chunk");
    grid::TransientSim sim(grid_, config_.dt, lanes);
    std::vector<workload::ActivityGenerator> generators;
    generators.reserve(lanes);
    for (std::size_t c = 0; c < lanes; ++c)
      generators.emplace_back(
          floorplan_, suite[b_begin + c],
          Rng(config_.seed + 0x9E3779B9 * (b_begin + c + 1)));
    std::vector<linalg::Vector> currents(lanes,
                                         linalg::Vector(grid_.node_count()));
    const auto advance = [&]() -> const linalg::Vector& {
      for (std::size_t c = 0; c < lanes; ++c)
        model.to_node_currents(generators[c].step(), currents[c]);
      return sim.step(currents);
    };

    for (std::size_t s = 0; s < config_.warmup_steps; ++s) advance();

    // Keep every map_stride-th step, starting with the first; each kept map
    // goes straight into its benchmark's column. Time-split: earlier maps
    // train, later maps test (no leakage).
    for (std::size_t map = 0; map < maps_needed; ++map) {
      if (map > 0)
        for (std::size_t s = 1; s < config_.map_stride; ++s) advance();
      const linalg::Vector& v = advance();
      const bool train = map < config_.train_maps_per_benchmark;
      linalg::Matrix& x = train ? data.x_train : data.x_test;
      linalg::Matrix& f = train ? data.f_train : data.f_test;
      for (std::size_t c = 0; c < lanes; ++c) {
        const BenchmarkSlice& slice = slices[b_begin + c];
        const std::size_t dst =
            train ? slice.train_begin + map
                  : slice.test_begin + map - config_.train_maps_per_benchmark;
        for (std::size_t r = 0; r < m_count; ++r)
          x(r, dst) = v[data.candidate_nodes[r] * lanes + c];
        for (std::size_t r = 0; r < k_count; ++r)
          f(r, dst) = v[data.critical_nodes[r] * lanes + c];
      }
    }
    VMAP_LOG(kInfo) << suite[b_begin].name << " + " << lanes - 1
                    << " more: " << maps_needed << " maps each in "
                    << chunk_timer.seconds() << " s";
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
// v7: sectioned layout with a per-section FNV-1a checksum and atomic
// (write_file_atomic) saves. v6 and older caches fail the version
// check and are transparently recollected.
constexpr std::uint64_t kVersion = 7;

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
void write_f64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
double read_f64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
// The readers below allocate from counts stored in a section payload. The
// section checksum is FNV-1a, which does not stop a forged count, so every
// count is bounded by the payload bytes left before anything is allocated;
// a count that cannot fit fails the stream, and the section surfaces as
// kCorruption instead of an overflowed shape, std::bad_alloc or
// std::length_error.

/// Bytes left unread in a payload stream.
std::uint64_t bytes_left(std::istream& in) {
  const std::streamsize n = in ? in.rdbuf()->in_avail() : 0;
  return n > 0 ? static_cast<std::uint64_t>(n) : 0;
}
/// Reads an element count; fails the stream (and returns 0) unless that
/// many `element_bytes`-byte elements fit in the bytes left.
std::uint64_t read_count(std::istream& in, std::uint64_t element_bytes) {
  const std::uint64_t n = read_u64(in);
  if (n <= bytes_left(in) / element_bytes) return n;
  in.setstate(std::ios::failbit);
  return 0;
}

void write_string(std::ostream& out, const std::string& s) {
  write_u64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}
std::string read_string(std::istream& in) {
  const std::uint64_t n = read_count(in, 1);
  std::string s(n, '\0');
  in.read(s.data(), static_cast<std::streamsize>(n));
  return s;
}
void write_matrix(std::ostream& out, const linalg::Matrix& m) {
  write_u64(out, m.rows());
  write_u64(out, m.cols());
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.rows() * m.cols() *
                                         sizeof(double)));
}
linalg::Matrix read_matrix(std::istream& in) {
  const std::uint64_t rows = read_u64(in);
  const std::uint64_t cols = read_u64(in);
  // rows <= fit / cols keeps rows * cols (and its byte count) from
  // overflowing.
  if (cols != 0 && rows > bytes_left(in) / sizeof(double) / cols) {
    in.setstate(std::ios::failbit);
    return {};
  }
  linalg::Matrix m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(rows * cols * sizeof(double)));
  return m;
}
void write_indices(std::ostream& out, const std::vector<std::size_t>& v) {
  write_u64(out, v.size());
  for (std::size_t x : v) write_u64(out, x);
}
std::vector<std::size_t> read_indices(std::istream& in) {
  std::vector<std::size_t> v(read_count(in, sizeof(std::uint64_t)));
  for (auto& x : v) x = read_u64(in);
  return v;
}

void write_config(std::ostream& out, const DataConfig& c) {
  write_f64(out, c.dt);
  write_u64(out, c.warmup_steps);
  write_u64(out, c.train_maps_per_benchmark);
  write_u64(out, c.test_maps_per_benchmark);
  write_u64(out, c.map_stride);
  write_u64(out, c.candidate_stride);
  write_u64(out, c.critical_nodes_per_block);
  write_u64(out, c.include_fa_candidates ? 1 : 0);
  write_f64(out, c.target_emergency_rate);
  write_f64(out, c.target_droop);
  write_f64(out, c.emergency_threshold);
  write_u64(out, c.calibration_steps);
  write_u64(out, c.seed);
}
DataConfig read_config(std::istream& in) {
  DataConfig c;
  c.dt = read_f64(in);
  c.warmup_steps = read_u64(in);
  c.train_maps_per_benchmark = read_u64(in);
  c.test_maps_per_benchmark = read_u64(in);
  c.map_stride = read_u64(in);
  c.candidate_stride = read_u64(in);
  c.critical_nodes_per_block = read_u64(in);
  c.include_fa_candidates = read_u64(in) != 0;
  c.target_emergency_rate = read_f64(in);
  c.target_droop = read_f64(in);
  c.emergency_threshold = read_f64(in);
  c.calibration_steps = read_u64(in);
  c.seed = read_u64(in);
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

constexpr std::size_t kSectionHeaderBytes = 3 * sizeof(std::uint64_t);

/// Appends one section, [u64 tag][u64 payload bytes][u64 fnv1a64(payload)]
/// [payload], with the length and checksum left zero for
/// seal_sections(). Returns the header's offset.
template <typename WritePayload>
std::size_t write_section(std::ostringstream& out, std::uint64_t tag,
                          WritePayload&& write_payload) {
  const auto header = static_cast<std::size_t>(out.tellp());
  write_u64(out, tag);
  write_u64(out, 0);
  write_u64(out, 0);
  write_payload(out);
  return header;
}

/// Fills in each section's length and checksum; `headers` are the
/// write_section() offsets in file order.
void seal_sections(std::string& image, const std::vector<std::size_t>& headers) {
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const std::size_t payload = headers[i] + kSectionHeaderBytes;
    const std::size_t end = i + 1 < headers.size() ? headers[i + 1] : image.size();
    const std::uint64_t fields[] = {end - payload,
                                    fnv1a64(image.data() + payload, end - payload)};
    std::memcpy(image.data() + headers[i] + sizeof(std::uint64_t), fields,
                sizeof(fields));
  }
}

/// Reads and verifies one section. `remaining` bounds the payload length
/// claim so a corrupted length field cannot trigger a huge allocation or a
/// silent short read.
StatusOr<std::string> read_section(std::istream& in, std::uint64_t expected_tag,
                                   std::uint64_t remaining,
                                   const std::string& path) {
  if (remaining < kSectionHeaderBytes)
    return Status::Corruption("dataset cache truncated before section header: " +
                              path);
  const std::uint64_t tag = read_u64(in);
  const std::uint64_t bytes = read_u64(in);
  const std::uint64_t checksum = read_u64(in);
  if (!in)
    return Status::Corruption("dataset cache section header unreadable: " +
                              path);
  if (tag != expected_tag)
    return Status::Corruption("dataset cache section tag mismatch (got " +
                              std::to_string(tag) + ", want " +
                              std::to_string(expected_tag) + "): " + path);
  if (bytes > remaining - kSectionHeaderBytes)
    return Status::Corruption(
        "dataset cache section length exceeds file size: " + path);
  std::string payload(bytes, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(bytes));
  if (static_cast<std::uint64_t>(in.gcount()) != bytes)
    return Status::Corruption("dataset cache section payload truncated: " +
                              path);
  if (fnv1a64(payload.data(), payload.size()) != checksum)
    return Status::Corruption("dataset cache section checksum mismatch (tag " +
                              std::to_string(expected_tag) + "): " + path);
  return payload;
}

/// True when the payload stream is healthy and fully consumed — extra or
/// missing bytes inside a checksummed section indicate a writer/reader
/// version skew.
bool payload_consumed(std::istringstream& s) {
  return !s.fail() && s.peek() == std::istringstream::traits_type::eof();
}
}  // namespace

Status Dataset::try_save(const std::string& path) const {
  // Serialize the whole image to memory first, then write it with
  // write_file_atomic (tmp + fsync + rename + directory fsync): a crash can
  // at worst leave a stale .tmp file behind, never a torn cache under the
  // real name, and a completed save survives the crash.
  std::ostringstream out;
  write_u64(out, kMagic);
  write_u64(out, kVersion);
  std::vector<std::size_t> headers;
  headers.push_back(write_section(out, kSecMeta, [&](std::ostream& o) {
    write_config(o, config);
    write_u64(o, workload_hash);
    write_u64(o, platform);
    write_f64(o, current_scale);
  }));
  headers.push_back(write_section(out, kSecCandidates, [&](std::ostream& o) {
    write_indices(o, candidate_nodes);
  }));
  headers.push_back(write_section(out, kSecCriticals, [&](std::ostream& o) {
    write_indices(o, critical_nodes);
    write_indices(o, critical_block);
  }));
  const std::pair<std::uint64_t, const linalg::Matrix*> matrices[] = {
      {kSecXTrain, &x_train},
      {kSecFTrain, &f_train},
      {kSecXTest, &x_test},
      {kSecFTest, &f_test}};
  for (const auto& [tag, m] : matrices)
    headers.push_back(write_section(
        out, tag, [m = m](std::ostream& o) { write_matrix(o, *m); }));
  headers.push_back(write_section(out, kSecBenchmarks, [&](std::ostream& o) {
    write_u64(o, benchmarks.size());
    for (const auto& b : benchmarks) {
      write_string(o, b.name);
      write_u64(o, b.train_begin);
      write_u64(o, b.train_end);
      write_u64(o, b.test_begin);
      write_u64(o, b.test_end);
    }
  }));
  std::string image = std::move(out).str();
  seal_sections(image, headers);
  return write_file_atomic(path, image);
}

void Dataset::save(const std::string& path) const {
  const Status status = try_save(path);
  if (!status.ok()) throw StatusError(status);
}

StatusOr<Dataset> Dataset::try_load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Io("cannot read dataset cache: " + path);
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (file_size < 2 * sizeof(std::uint64_t))
    return Status::Corruption("dataset cache too small to hold a header: " +
                              path);
  if (read_u64(in) != kMagic)
    return Status::Corruption("bad dataset cache magic: " + path);
  if (read_u64(in) != kVersion)
    return Status::Corruption("dataset cache version mismatch: " + path);

  const auto remaining = [&in, file_size]() {
    return file_size - static_cast<std::uint64_t>(in.tellg());
  };
  Dataset d;

  StatusOr<std::string> meta = read_section(in, kSecMeta, remaining(), path);
  if (!meta.ok()) return meta.status();
  {
    std::istringstream s(meta.value());
    d.config = read_config(s);
    d.workload_hash = read_u64(s);
    d.platform = read_u64(s);
    d.current_scale = read_f64(s);
    if (!payload_consumed(s))
      return Status::Corruption("dataset cache meta section malformed: " +
                                path);
  }

  StatusOr<std::string> cands =
      read_section(in, kSecCandidates, remaining(), path);
  if (!cands.ok()) return cands.status();
  {
    std::istringstream s(cands.value());
    d.candidate_nodes = read_indices(s);
    if (!payload_consumed(s))
      return Status::Corruption(
          "dataset cache candidate section malformed: " + path);
  }

  StatusOr<std::string> crits =
      read_section(in, kSecCriticals, remaining(), path);
  if (!crits.ok()) return crits.status();
  {
    std::istringstream s(crits.value());
    d.critical_nodes = read_indices(s);
    d.critical_block = read_indices(s);
    if (!payload_consumed(s))
      return Status::Corruption(
          "dataset cache critical-node section malformed: " + path);
  }

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
    StatusOr<std::string> payload =
        read_section(in, sec.tag, remaining(), path);
    if (!payload.ok()) return payload.status();
    std::istringstream s(payload.value());
    *sec.dst = read_matrix(s);
    if (!payload_consumed(s) || sec.dst->rows() != sec.rows)
      return Status::Corruption("dataset cache " + std::string(sec.name) +
                                " section malformed: " + path);
  }
  if (d.f_train.cols() != d.x_train.cols() ||
      d.f_test.cols() != d.x_test.cols())
    return Status::Corruption("dataset cache sample counts disagree: " + path);

  StatusOr<std::string> benches =
      read_section(in, kSecBenchmarks, remaining(), path);
  if (!benches.ok()) return benches.status();
  {
    std::istringstream s(benches.value());
    const std::uint64_t nb = read_u64(s);
    for (std::uint64_t i = 0; i < nb; ++i) {
      BenchmarkSlice slice;
      slice.name = read_string(s);
      slice.train_begin = read_u64(s);
      slice.train_end = read_u64(s);
      slice.test_begin = read_u64(s);
      slice.test_end = read_u64(s);
      if (s.fail())
        return Status::Corruption(
            "dataset cache benchmark section malformed: " + path);
      d.benchmarks.push_back(std::move(slice));
    }
    if (!payload_consumed(s))
      return Status::Corruption("dataset cache benchmark section malformed: " +
                                path);
  }

  if (remaining() != 0)
    return Status::Corruption("dataset cache has trailing garbage (" +
                              std::to_string(remaining()) + " bytes): " + path);
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
