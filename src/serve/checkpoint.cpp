#include "serve/checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/hash.hpp"

namespace vmap::serve {

namespace {

constexpr std::uint64_t kMagic = 0x564D4150464C4554ULL;  // "VMAPFLET"
constexpr std::uint64_t kVersion = 1;

// Section tags, fixed file order: one meta section, then one section per
// chip. The chip tag encodes the chip id so a shuffled or spliced file is
// caught as corruption, not silently cross-restored.
constexpr std::uint64_t kSecMeta = 0xF1EE0001ULL;
constexpr std::uint64_t kSecChipBase = 0xF1EE1000ULL;

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_section(std::ostream& out, std::uint64_t tag,
                   const std::string& payload) {
  write_u64(out, tag);
  write_u64(out, payload.size());
  write_u64(out, fnv1a64(payload.data(), payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

StatusOr<std::string> read_section(std::istream& in, std::uint64_t expected_tag,
                                   std::uint64_t remaining,
                                   const std::string& path) {
  if (remaining < 3 * sizeof(std::uint64_t))
    return Status::Corruption("fleet checkpoint truncated before section: " +
                              path);
  const std::uint64_t tag = read_u64(in);
  const std::uint64_t bytes = read_u64(in);
  const std::uint64_t checksum = read_u64(in);
  if (!in)
    return Status::Corruption("fleet checkpoint section header unreadable: " +
                              path);
  if (tag != expected_tag)
    return Status::Corruption("fleet checkpoint section tag mismatch (got " +
                              std::to_string(tag) + ", want " +
                              std::to_string(expected_tag) + "): " + path);
  if (bytes > remaining - 3 * sizeof(std::uint64_t))
    return Status::Corruption(
        "fleet checkpoint section length exceeds file size: " + path);
  std::string payload(bytes, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(bytes));
  if (static_cast<std::uint64_t>(in.gcount()) != bytes)
    return Status::Corruption("fleet checkpoint section truncated: " + path);
  if (fnv1a64(payload.data(), payload.size()) != checksum)
    return Status::Corruption(
        "fleet checkpoint section checksum mismatch (tag " +
        std::to_string(expected_tag) + "): " + path);
  return payload;
}

bool payload_consumed(std::istringstream& s) {
  return !s.fail() && s.peek() == std::istringstream::traits_type::eof();
}

void write_size_vector(std::ostream& out, const std::vector<std::size_t>& v) {
  write_u64(out, v.size());
  for (std::size_t x : v) write_u64(out, x);
}

// The element count is bounded by the enclosing payload size before the
// reserve: the section checksum is FNV-1a (not collision/forgery
// resistant), so a checksum-valid but malformed count must surface as a
// Corruption Status, never as a std::length_error/bad_alloc escaping the
// load path.
Status read_size_vector(std::istream& in, std::uint64_t max_count,
                        const std::string& path,
                        std::vector<std::size_t>& v) {
  const std::uint64_t n = read_u64(in);
  if (n > max_count)
    return Status::Corruption("fleet checkpoint chip section malformed: " +
                              path);
  v.clear();
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i)
    v.push_back(static_cast<std::size_t>(read_u64(in)));
  return Status::Ok();
}

std::string serialize_chip(const ChipDomain::PersistedState& p) {
  std::ostringstream s;
  write_u64(s, p.mode);
  write_u64(s, p.seen_any);
  write_u64(s, p.last_sequence);
  write_u64(s, p.consecutive_rejects);
  write_u64(s, p.probation_ok);
  write_u64(s, p.strikes);
  write_u64(s, p.quarantine_episodes);
  write_u64(s, p.accepted);
  write_u64(s, p.rejected_malformed);
  write_u64(s, p.rejected_nonfinite);
  write_u64(s, p.rejected_stale);
  write_u64(s, p.dropped_quarantined);
  write_u64(s, p.dropped_suspended);
  write_u64(s, p.shed);
  write_u64(s, p.monitor.alarm ? 1 : 0);
  write_u64(s, p.monitor.degraded ? 1 : 0);
  write_u64(s, p.monitor.crossing_streak);
  write_u64(s, p.monitor.safe_streak);
  write_u64(s, p.monitor.samples);
  write_u64(s, p.monitor.alarm_samples);
  write_u64(s, p.monitor.alarm_episodes);
  write_u64(s, p.monitor.degraded_samples);
  write_u64(s, p.monitor.degraded_episodes);
  write_u64(s, p.monitor.rejected_samples);
  write_u64(s, p.detector.health.size());
  for (core::SensorHealth h : p.detector.health)
    write_u64(s, h == core::SensorHealth::kFaulty ? 1 : 0);
  write_size_vector(s, p.detector.out_streak);
  write_size_vector(s, p.detector.in_streak);
  return s.str();
}

Status deserialize_chip(const std::string& payload, const std::string& path,
                        ChipDomain::PersistedState& p) {
  std::istringstream s(payload);
  p.mode = read_u64(s);
  p.seen_any = read_u64(s);
  p.last_sequence = read_u64(s);
  p.consecutive_rejects = read_u64(s);
  p.probation_ok = read_u64(s);
  p.strikes = read_u64(s);
  p.quarantine_episodes = read_u64(s);
  p.accepted = read_u64(s);
  p.rejected_malformed = read_u64(s);
  p.rejected_nonfinite = read_u64(s);
  p.rejected_stale = read_u64(s);
  p.dropped_quarantined = read_u64(s);
  p.dropped_suspended = read_u64(s);
  p.shed = read_u64(s);
  p.monitor.alarm = read_u64(s) != 0;
  p.monitor.degraded = read_u64(s) != 0;
  p.monitor.crossing_streak = read_u64(s);
  p.monitor.safe_streak = read_u64(s);
  p.monitor.samples = read_u64(s);
  p.monitor.alarm_samples = read_u64(s);
  p.monitor.alarm_episodes = read_u64(s);
  p.monitor.degraded_samples = read_u64(s);
  p.monitor.degraded_episodes = read_u64(s);
  p.monitor.rejected_samples = read_u64(s);
  const std::uint64_t health_count = read_u64(s);
  // Bound the claimed element counts by the payload size so a corrupted
  // count cannot trigger a huge allocation before the stream runs dry.
  if (health_count > payload.size())
    return Status::Corruption("fleet checkpoint chip section malformed: " +
                              path);
  p.detector.health.clear();
  p.detector.health.reserve(static_cast<std::size_t>(health_count));
  for (std::uint64_t i = 0; i < health_count; ++i)
    p.detector.health.push_back(read_u64(s) != 0
                                    ? core::SensorHealth::kFaulty
                                    : core::SensorHealth::kHealthy);
  Status st = read_size_vector(s, payload.size(), path, p.detector.out_streak);
  if (!st.ok()) return st;
  st = read_size_vector(s, payload.size(), path, p.detector.in_streak);
  if (!st.ok()) return st;
  if (!payload_consumed(s))
    return Status::Corruption("fleet checkpoint chip section malformed: " +
                              path);
  return Status::Ok();
}

}  // namespace

Status save_fleet_checkpoint(const MonitorFleet& fleet,
                             const std::string& path) {
  const std::vector<ChipDomain::PersistedState> states =
      fleet.persisted_states();

  std::ostringstream meta;
  write_u64(meta, states.size());

  std::ostringstream out;
  write_u64(out, kMagic);
  write_u64(out, kVersion);
  write_section(out, kSecMeta, meta.str());
  for (std::size_t i = 0; i < states.size(); ++i)
    write_section(out, kSecChipBase + i, serialize_chip(states[i]));
  return write_file_atomic(path, out.str());
}

Status load_fleet_checkpoint(MonitorFleet& fleet, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Io("cannot read fleet checkpoint: " + path);
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (file_size < 2 * sizeof(std::uint64_t))
    return Status::Corruption("fleet checkpoint too small for a header: " +
                              path);
  if (read_u64(in) != kMagic)
    return Status::Corruption("bad fleet checkpoint magic: " + path);
  if (read_u64(in) != kVersion)
    return Status::Corruption("fleet checkpoint version mismatch: " + path);

  const auto remaining = [&in, file_size]() {
    return file_size - static_cast<std::uint64_t>(in.tellg());
  };

  StatusOr<std::string> meta = read_section(in, kSecMeta, remaining(), path);
  if (!meta.ok()) return meta.status();
  std::uint64_t chip_count = 0;
  {
    std::istringstream s(meta.value());
    chip_count = read_u64(s);
    if (!payload_consumed(s))
      return Status::Corruption("fleet checkpoint meta malformed: " + path);
  }
  if (chip_count != fleet.num_chips())
    return Status::InvalidArgument(
        "fleet checkpoint carries " + std::to_string(chip_count) +
        " chips, fleet has " + std::to_string(fleet.num_chips()) + ": " +
        path);

  // Parse and validate everything before touching the fleet, so a partially
  // good file cannot leave a half-restored mixture of old and new state.
  std::vector<ChipDomain::PersistedState> states(
      static_cast<std::size_t>(chip_count));
  for (std::uint64_t i = 0; i < chip_count; ++i) {
    StatusOr<std::string> payload =
        read_section(in, kSecChipBase + i, remaining(), path);
    if (!payload.ok()) return payload.status();
    const Status st = deserialize_chip(payload.value(), path,
                                       states[static_cast<std::size_t>(i)]);
    if (!st.ok()) return st;
  }
  return fleet.restore_states(states);
}

}  // namespace vmap::serve
