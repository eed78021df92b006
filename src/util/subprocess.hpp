#pragma once
// Minimal fork/exec child-process control for the sweep supervisor.
//
// A scenario job runs in its own process so a segfault, abort, OOM kill, or
// hang in one solve cannot take down — or corrupt the address space of —
// the supervisor. ChildProcess wraps the POSIX lifecycle: spawn (fork +
// execvp with stdout/stderr redirected to a per-job file), non-blocking
// try_wait() polling, SIGKILL, and a run_with_deadline() helper that
// enforces a wall-clock budget. On non-POSIX hosts spawn() reports kIo
// (the sweep engine is POSIX-only, like the rest of the CI fleet).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace vmap {

/// How a child ended.
struct ExitStatus {
  bool signaled = false;  ///< true when terminated by a signal
  int code = 0;           ///< exit code, or the signal number when signaled
  bool deadline_killed = false;  ///< SIGKILLed by run_with_deadline()

  bool clean() const { return !signaled && code == 0; }
};

/// One spawned child. Move-constructible, not copyable or assignable; the
/// destructor does not reap — callers own the lifecycle
/// (run_with_deadline always reaps).
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// fork+execvp. argv[0] is the binary (PATH-resolved). When
  /// `stdout_path` is non-empty the child's stdout AND stderr are
  /// redirected (truncating) to it. `env_overrides` entries
  /// ("KEY=VALUE") replace any inherited variable with the same KEY; an
  /// empty VALUE ("KEY=") effectively unsets it for env-switch consumers
  /// that treat empty as absent (VMAP_TRACE does). The merged environment
  /// is built before forking — the child touches no allocator. kIo when
  /// fork fails; exec failure inside the child surfaces as exit code 127.
  static StatusOr<ChildProcess> spawn(
      const std::vector<std::string>& argv, const std::string& stdout_path,
      const std::vector<std::string>& env_overrides = {});

  /// Non-blocking: the exit status if the child has ended, else nullopt.
  std::optional<ExitStatus> try_wait();

  /// Blocking reap.
  ExitStatus wait();

  /// SIGKILL (no-op once reaped).
  void kill_hard();

  /// SIGTERM (no-op once reaped) — gives the child a chance to dump its
  /// flight-recorder rings before run_with_deadline() escalates.
  void kill_soft();

  bool running() const { return pid_ > 0 && !reaped_; }
  std::int64_t pid() const { return pid_; }

 private:
  std::int64_t pid_ = -1;
  bool reaped_ = false;
  ExitStatus status_;
};

/// Spawns argv, waits up to `deadline_ms` (0 = forever). On expiry the
/// child first gets SIGTERM and `term_grace_ms` to exit on its own (its
/// signal handler can dump the flight recorder into the captured output);
/// only then SIGKILL. The returned ExitStatus has deadline_killed set
/// whenever the budget ran out, however the child died. kIo only when the
/// process could not be spawned at all.
StatusOr<ExitStatus> run_with_deadline(
    const std::vector<std::string>& argv, const std::string& stdout_path,
    std::size_t deadline_ms, const std::vector<std::string>& env_overrides = {},
    std::size_t term_grace_ms = 500);

}  // namespace vmap
