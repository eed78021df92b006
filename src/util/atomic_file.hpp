#pragma once
// Crash-safe whole-file writes, shared by every file the system writes
// whole: the dataset cache and fleet checkpoint (util/sectioned_file), the
// sweep journal's header, run reports, traces, telemetry shards and sweep
// reports.
//
// write_file_atomic() writes the full contents to `path + ".tmp"`, fsyncs
// the file, renames it into place, then fsyncs the containing directory so
// the rename itself is durable. A crash at any instant leaves either the
// previous file or the new one, never a prefix.

#include <string>

#include "util/status.hpp"

namespace vmap {

/// Writes `contents` to `path` via tmp+fsync+rename (+directory fsync).
/// kIo on any filesystem failure; the tmp file is removed on error.
Status write_file_atomic(const std::string& path, const std::string& contents);

}  // namespace vmap
