#include "sweep/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/hash.hpp"

namespace vmap::sweep {

namespace {

const char* pad_short_name(grid::PadArrangement a) {
  switch (a) {
    case grid::PadArrangement::kSquare: return "sq";
    case grid::PadArrangement::kTriangular: return "tri";
    case grid::PadArrangement::kHexagonal: return "hex";
  }
  return "?";
}

StatusOr<grid::PadArrangement> parse_pads(const std::string& v) {
  if (v == "square") return grid::PadArrangement::kSquare;
  if (v == "triangular") return grid::PadArrangement::kTriangular;
  if (v == "hexagonal") return grid::PadArrangement::kHexagonal;
  return Status::InvalidArgument("unknown pad arrangement: " + v);
}

bool parse_u64(const std::string& v, std::uint64_t& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(v.c_str(), &end, 10);
  return end && *end == '\0';
}

bool parse_f64(const std::string& v, double& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return end && *end == '\0';
}

}  // namespace

// Specs must be canonical, so that spec → Scenario → spec is the identity
// and hashes are stable: %.17g round-trips IEEE doubles exactly.
std::string exact_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Scenario::spec() const {
  std::ostringstream s;
  s << "pads=" << grid::pad_arrangement_name(pads)
    << ";dens=" << exact_double(density)
    << ";layers=" << (two_layer ? 2 : 1)
    << ";cores=" << cores_x << "x" << cores_y
    << ";vofs=" << exact_double(vdd_offset)
    << ";wl=" << workload
    << ";seed=" << seed
    << ";train=" << train_maps
    << ";test=" << test_maps
    << ";warmup=" << warmup_steps
    << ";calib=" << calibration_steps;
  return s.str();
}

std::string Scenario::id() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s-d%.2f-L%d-%zux%zu-v%+.3f-%s",
                pad_short_name(pads), density, two_layer ? 2 : 1, cores_x,
                cores_y, vdd_offset, workload.c_str());
  return buf;
}

std::uint64_t Scenario::hash() const {
  const std::string s = spec();
  return fnv1a64(s.data(), s.size());
}

core::ExperimentSetup Scenario::setup() const {
  // Scaled from small_setup()'s 16x16-tiles-per-core footprint so every
  // core count keeps room for the 30-block template plus BA channels.
  core::ExperimentSetup s = core::small_setup();
  const auto dim = [&](std::size_t cores) {
    return static_cast<std::size_t>(
        std::lround(16.0 * static_cast<double>(cores) * density));
  };
  s.grid.nx = dim(cores_x);
  s.grid.ny = dim(cores_y);
  s.grid.pad_spacing = 8;
  s.grid.pad_arrangement = pads;
  s.grid.two_layer = two_layer;
  s.grid.vdd = 1.0 + vdd_offset;
  s.floorplan.cores_x = cores_x;
  s.floorplan.cores_y = cores_y;
  s.floorplan.core_margin = 1;
  s.data.seed = seed;
  s.data.train_maps_per_benchmark = train_maps;
  s.data.test_maps_per_benchmark = test_maps;
  s.data.warmup_steps = warmup_steps;
  s.data.calibration_steps = calibration_steps;
  return s;
}

StatusOr<Scenario> Scenario::parse(const std::string& spec) {
  Scenario sc;
  std::uint32_t seen = 0;  // bit per required key
  std::istringstream in(spec);
  std::string field;
  while (std::getline(in, field, ';')) {
    const auto eq = field.find('=');
    if (eq == std::string::npos)
      return Status::InvalidArgument("scenario field without '=': " + field);
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    std::uint64_t u = 0;
    double f = 0.0;
    if (key == "pads") {
      auto pads = parse_pads(value);
      if (!pads.ok()) return pads.status();
      sc.pads = *pads;
      seen |= 1u << 0;
    } else if (key == "dens") {
      if (!parse_f64(value, f) || f <= 0.0)
        return Status::InvalidArgument("bad density: " + value);
      sc.density = f;
      seen |= 1u << 1;
    } else if (key == "layers") {
      if (!parse_u64(value, u) || (u != 1 && u != 2))
        return Status::InvalidArgument("bad layer count: " + value);
      sc.two_layer = u == 2;
      seen |= 1u << 2;
    } else if (key == "cores") {
      const auto x = value.find('x');
      std::uint64_t cx = 0, cy = 0;
      if (x == std::string::npos || !parse_u64(value.substr(0, x), cx) ||
          !parse_u64(value.substr(x + 1), cy) || cx == 0 || cy == 0)
        return Status::InvalidArgument("bad core grid: " + value);
      sc.cores_x = static_cast<std::size_t>(cx);
      sc.cores_y = static_cast<std::size_t>(cy);
      seen |= 1u << 3;
    } else if (key == "vofs") {
      if (!parse_f64(value, f))
        return Status::InvalidArgument("bad vdd offset: " + value);
      sc.vdd_offset = f;
      seen |= 1u << 4;
    } else if (key == "wl") {
      if (value.empty())
        return Status::InvalidArgument("empty workload archetype");
      sc.workload = value;
      seen |= 1u << 5;
    } else if (key == "seed") {
      if (!parse_u64(value, u))
        return Status::InvalidArgument("bad seed: " + value);
      sc.seed = u;
      seen |= 1u << 6;
    } else if (key == "train") {
      if (!parse_u64(value, u) || u == 0)
        return Status::InvalidArgument("bad train map count: " + value);
      sc.train_maps = static_cast<std::size_t>(u);
      seen |= 1u << 7;
    } else if (key == "test") {
      if (!parse_u64(value, u) || u == 0)
        return Status::InvalidArgument("bad test map count: " + value);
      sc.test_maps = static_cast<std::size_t>(u);
      seen |= 1u << 8;
    } else if (key == "warmup") {
      if (!parse_u64(value, u))
        return Status::InvalidArgument("bad warmup steps: " + value);
      sc.warmup_steps = static_cast<std::size_t>(u);
      seen |= 1u << 9;
    } else if (key == "calib") {
      if (!parse_u64(value, u) || u == 0)
        return Status::InvalidArgument("bad calibration steps: " + value);
      sc.calibration_steps = static_cast<std::size_t>(u);
      seen |= 1u << 10;
    } else {
      return Status::InvalidArgument("unknown scenario key: " + key);
    }
  }
  if (seen != (1u << 11) - 1)
    return Status::InvalidArgument("scenario spec missing fields: " + spec);
  return sc;
}

std::vector<Scenario> ScenarioMatrix::expand() const {
  std::vector<Scenario> out;
  for (grid::PadArrangement pads : pad_arrangements)
    for (double density : densities)
      for (bool two_layer : layer_modes)
        for (const auto& [cx, cy] : core_grids)
          for (double vofs : vdd_offsets)
            for (const std::string& wl : workloads) {
              Scenario sc;
              sc.pads = pads;
              sc.density = density;
              sc.two_layer = two_layer;
              sc.cores_x = cx;
              sc.cores_y = cy;
              sc.vdd_offset = vofs;
              sc.workload = wl;
              sc.seed = seed;
              sc.train_maps = train_maps;
              sc.test_maps = test_maps;
              sc.warmup_steps = warmup_steps;
              sc.calibration_steps = calibration_steps;
              out.push_back(std::move(sc));
            }
  return out;
}

std::uint64_t ScenarioMatrix::hash() const {
  std::uint64_t h = kFnv1a64Seed;
  for (const Scenario& sc : expand()) {
    const std::string s = sc.spec();
    h = fnv1a64(s.data(), s.size(), h);
  }
  return h;
}

std::string encode_result_payload(const JobResult& result) {
  std::ostringstream s;
  s << "sensors=" << result.sensors << " placement=" << hex64(result.placement)
    << " te=" << exact_double(result.te)
    << " rel_err=" << exact_double(result.rel_err);
  return s.str();
}

StatusOr<JobResult> parse_result_payload(const std::string& payload) {
  JobResult r;
  std::uint32_t seen = 0;
  std::istringstream in(payload);
  std::string field;
  while (in >> field) {
    const auto eq = field.find('=');
    if (eq == std::string::npos)
      return Status::Corruption("result field without '=': " + field);
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "sensors") {
      std::uint64_t u = 0;
      if (!parse_u64(value, u))
        return Status::Corruption("bad sensor count: " + value);
      r.sensors = static_cast<std::size_t>(u);
      seen |= 1u << 0;
    } else if (key == "placement") {
      char* end = nullptr;
      r.placement = std::strtoull(value.c_str(), &end, 16);
      if (!end || *end != '\0' || value.size() != 16)
        return Status::Corruption("bad placement hash: " + value);
      seen |= 1u << 1;
    } else if (key == "te") {
      double f = 0.0;
      if (!parse_f64(value, f))
        return Status::Corruption("bad te: " + value);
      r.te = f;
      seen |= 1u << 2;
    } else if (key == "rel_err") {
      double f = 0.0;
      if (!parse_f64(value, f))
        return Status::Corruption("bad rel_err: " + value);
      r.rel_err = f;
      seen |= 1u << 3;
    } else {
      return Status::Corruption("unknown result key: " + key);
    }
  }
  if (seen != (1u << 4) - 1)
    return Status::Corruption("result payload missing fields: " + payload);
  return r;
}

std::string encode_result_line(const JobResult& result) {
  const std::string payload = encode_result_payload(result);
  return "RESULT " + payload + " " +
         hex64(fnv1a64(payload.data(), payload.size()));
}

StatusOr<JobResult> parse_result_output(const std::string& output) {
  // The worker's stdout/stderr share one file; take the *last* RESULT line
  // so stray diagnostics cannot shadow the answer.
  std::string line, result_line;
  std::istringstream in(output);
  while (std::getline(in, line)) {
    if (line.rfind("RESULT ", 0) == 0) result_line = line;
  }
  if (result_line.empty())
    return Status::Corruption("worker output carries no RESULT line");
  const auto checksum_at = result_line.find_last_of(' ');
  if (checksum_at == std::string::npos || checksum_at <= 7)
    return Status::Corruption("malformed RESULT line: " + result_line);
  const std::string payload = result_line.substr(7, checksum_at - 7);
  const std::string checksum_hex = result_line.substr(checksum_at + 1);
  char* end = nullptr;
  const std::uint64_t claimed =
      std::strtoull(checksum_hex.c_str(), &end, 16);
  if (!end || *end != '\0' || checksum_hex.size() != 16)
    return Status::Corruption("malformed RESULT checksum: " + result_line);
  if (fnv1a64(payload.data(), payload.size()) != claimed)
    return Status::Corruption("RESULT checksum mismatch: " + result_line);
  return parse_result_payload(payload);
}

}  // namespace vmap::sweep
