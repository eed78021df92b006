#include "util/atomic_file.hpp"

#include <cstdio>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace vmap {

namespace {

/// fsyncs a file by path (no-op on non-POSIX hosts).
void fsync_path(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

/// fsyncs the directory containing `path`, making a completed rename into
/// that directory durable (no-op on non-POSIX hosts).
void fsync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : slash == 0 ? "/"
                                                    : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

Status write_file_atomic(const std::string& path,
                         const std::string& contents) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Io("cannot write file: " + tmp_path);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      return Status::Io("file write failed: " + tmp_path);
    }
  }
  fsync_path(tmp_path);
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Io("cannot move file into place: " + tmp_path + " -> " +
                      path);
  }
  fsync_parent_dir(path);
  return Status::Ok();
}

}  // namespace vmap
