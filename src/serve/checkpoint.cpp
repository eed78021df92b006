#include "serve/checkpoint.hpp"

#include <cstdint>
#include <vector>

#include "util/sectioned_file.hpp"

namespace vmap::serve {

namespace {

constexpr std::uint64_t kMagic = 0x564D4150464C4554ULL;  // "VMAPFLET"
constexpr std::uint64_t kVersion = 1;

// Section tags, fixed file order: one meta section, then one section per
// chip. The chip tag encodes the chip id so a shuffled or spliced file is
// caught as corruption, not silently cross-restored.
constexpr std::uint64_t kSecMeta = 0xF1EE0001ULL;
constexpr std::uint64_t kSecChipBase = 0xF1EE1000ULL;

void write_chip(SectionedWriter& s, const ChipDomain::PersistedState& p) {
  s.put_u64(p.mode);
  s.put_u64(p.seen_any);
  s.put_u64(p.last_sequence);
  s.put_u64(p.consecutive_rejects);
  s.put_u64(p.probation_ok);
  s.put_u64(p.strikes);
  s.put_u64(p.quarantine_episodes);
  s.put_u64(p.accepted);
  s.put_u64(p.rejected_malformed);
  s.put_u64(p.rejected_nonfinite);
  s.put_u64(p.rejected_stale);
  s.put_u64(p.dropped_quarantined);
  s.put_u64(p.dropped_suspended);
  s.put_u64(p.shed);
  s.put_u64(p.monitor.alarm ? 1 : 0);
  s.put_u64(p.monitor.degraded ? 1 : 0);
  s.put_u64(p.monitor.crossing_streak);
  s.put_u64(p.monitor.safe_streak);
  s.put_u64(p.monitor.samples);
  s.put_u64(p.monitor.alarm_samples);
  s.put_u64(p.monitor.alarm_episodes);
  s.put_u64(p.monitor.degraded_samples);
  s.put_u64(p.monitor.degraded_episodes);
  s.put_u64(p.monitor.rejected_samples);
  s.put_u64(p.detector.health.size());
  for (core::SensorHealth h : p.detector.health)
    s.put_u64(h == core::SensorHealth::kFaulty ? 1 : 0);
  s.put_indices(p.detector.out_streak);
  s.put_indices(p.detector.in_streak);
}

void read_chip(PayloadCursor& s, ChipDomain::PersistedState& p) {
  p.mode = s.u64();
  p.seen_any = s.u64();
  p.last_sequence = s.u64();
  p.consecutive_rejects = s.u64();
  p.probation_ok = s.u64();
  p.strikes = s.u64();
  p.quarantine_episodes = s.u64();
  p.accepted = s.u64();
  p.rejected_malformed = s.u64();
  p.rejected_nonfinite = s.u64();
  p.rejected_stale = s.u64();
  p.dropped_quarantined = s.u64();
  p.dropped_suspended = s.u64();
  p.shed = s.u64();
  p.monitor.alarm = s.u64() != 0;
  p.monitor.degraded = s.u64() != 0;
  p.monitor.crossing_streak = s.u64();
  p.monitor.safe_streak = s.u64();
  p.monitor.samples = s.u64();
  p.monitor.alarm_samples = s.u64();
  p.monitor.alarm_episodes = s.u64();
  p.monitor.degraded_samples = s.u64();
  p.monitor.degraded_episodes = s.u64();
  p.monitor.rejected_samples = s.u64();
  p.detector.health.resize(s.count(sizeof(std::uint64_t)));
  for (core::SensorHealth& h : p.detector.health)
    h = s.u64() != 0 ? core::SensorHealth::kFaulty
                     : core::SensorHealth::kHealthy;
  p.detector.out_streak = s.indices();
  p.detector.in_streak = s.indices();
}

}  // namespace

Status save_fleet_checkpoint(const MonitorFleet& fleet,
                             const std::string& path) {
  const std::vector<ChipDomain::PersistedState> states =
      fleet.persisted_states();
  SectionedWriter out(kMagic, kVersion);
  out.begin_section(kSecMeta);
  out.put_u64(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    out.begin_section(kSecChipBase + i);
    write_chip(out, states[i]);
  }
  return out.write(path);
}

Status load_fleet_checkpoint(MonitorFleet& fleet, const std::string& path) {
  StatusOr<SectionedReader> file =
      SectionedReader::open(path, "fleet checkpoint", kMagic, kVersion);
  if (!file.ok()) return file.status();
  std::uint64_t chip_count = 0;
  Status st = file->section(kSecMeta, "meta",
                            [&](PayloadCursor& s) { chip_count = s.u64(); });
  if (!st.ok()) return st;
  if (chip_count != fleet.num_chips())
    return Status::InvalidArgument(
        "fleet checkpoint carries " + std::to_string(chip_count) +
        " chips, fleet has " + std::to_string(fleet.num_chips()) + ": " +
        path);

  // Parse and validate everything before touching the fleet, so a partially
  // good file cannot leave a half-restored mixture of old and new state.
  std::vector<ChipDomain::PersistedState> states(
      static_cast<std::size_t>(chip_count));
  for (std::size_t i = 0; i < states.size(); ++i) {
    st = file->section(kSecChipBase + i, "chip",
                       [&](PayloadCursor& s) { read_chip(s, states[i]); });
    if (!st.ok()) return st;
  }
  st = file->finish();
  if (!st.ok()) return st;
  return fleet.restore_states(states);
}

}  // namespace vmap::serve
