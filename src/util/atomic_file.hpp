#pragma once
// Crash-safe whole-file writes, shared by the dataset cache, the fleet
// checkpoint, the sweep reports and any other artifact that must never be
// observed torn.
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

/// fsyncs an already-open-by-path file (no-op on non-POSIX hosts).
void fsync_path(const std::string& path);

/// fsyncs the directory containing `path`, making a completed rename into
/// that directory durable (no-op on non-POSIX hosts).
void fsync_parent_dir(const std::string& path);

}  // namespace vmap
