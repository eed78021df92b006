#pragma once
// Crash-safe fleet state checkpointing.
//
// A serving restart must resume every chip exactly where it left off:
// mid-debounce alarm streaks, open alarm episodes, detector hysteresis,
// quarantine probation — losing any of it would re-arm alarms that were
// already asserted (double-counted episodes) or drop ones mid-assertion
// (lost episodes). The checkpoint therefore carries the complete mutable
// state of every ChipDomain. It is a sectioned file (util/sectioned_file,
// the dataset cache's format): sections framed as
// [tag][length][fnv1a64][payload], serialized fully in memory and written
// by write_file_atomic (tmp file, fsync, rename, directory fsync) — a
// crash at any instant leaves either the previous checkpoint or the new
// one, never a torn file. Loads verify magic, version, per-section
// checksums, and shape against the live fleet, and return kCorruption /
// kInvalidArgument without modifying any chip on failure.

#include <string>

#include "serve/fleet.hpp"
#include "util/status.hpp"

namespace vmap::serve {

/// Writes the fleet's full per-chip state to `path` (tmp+fsync+rename).
/// The fleet must be idle (stopped, or between pump() calls).
Status save_fleet_checkpoint(const MonitorFleet& fleet,
                             const std::string& path);

/// Restores a checkpoint onto an identically-built fleet (same chips,
/// same order, same models). The whole file is parsed and checksummed
/// before any chip is touched; a per-chip shape mismatch (checkpoint from a
/// differently-built fleet) aborts at that chip with InvalidArgument.
Status load_fleet_checkpoint(MonitorFleet& fleet, const std::string& path);

}  // namespace vmap::serve
