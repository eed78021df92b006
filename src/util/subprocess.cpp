#include "util/subprocess.hpp"

#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;
#endif

namespace vmap {

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      reaped_(std::exchange(other.reaped_, false)),
      status_(other.status_) {}

#if defined(__unix__) || defined(__APPLE__)

StatusOr<ChildProcess> ChildProcess::spawn(
    const std::vector<std::string>& argv, const std::string& stdout_path,
    const std::vector<std::string>& env_overrides) {
  if (argv.empty())
    return Status::InvalidArgument("spawn needs a non-empty argv");

  // Build the exec vectors before forking: the child must only call
  // async-signal-safe functions (we may be forking from a threaded
  // supervisor, and malloc in the child can deadlock).
  std::vector<const char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& a : argv) cargv.push_back(a.c_str());
  cargv.push_back(nullptr);

  // Merged environment: inherited variables minus any whose KEY appears
  // in an override, plus the overrides themselves.
  std::vector<std::string> merged_env;
  std::vector<const char*> cenvp;
  if (!env_overrides.empty()) {
    for (char** e = environ; e && *e; ++e) {
      const char* entry = *e;
      const char* eq = std::strchr(entry, '=');
      const std::size_t key_len =
          eq ? static_cast<std::size_t>(eq - entry) : std::strlen(entry);
      bool overridden = false;
      for (const std::string& o : env_overrides) {
        if (o.size() > key_len && o[key_len] == '=' &&
            o.compare(0, key_len, entry, key_len) == 0) {
          overridden = true;
          break;
        }
      }
      if (!overridden) merged_env.emplace_back(entry);
    }
    for (const std::string& o : env_overrides) merged_env.push_back(o);
    cenvp.reserve(merged_env.size() + 1);
    for (const std::string& e : merged_env) cenvp.push_back(e.c_str());
    cenvp.push_back(nullptr);
  }

  const pid_t pid = ::fork();
  if (pid < 0) return Status::Io("fork failed for " + argv.front());
  if (pid == 0) {
    if (!stdout_path.empty()) {
      const int fd = ::open(stdout_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO) ::close(fd);
      }
    }
    // execvp resolves PATH against `environ`; repointing it at the
    // pre-built merged block is async-signal-safe (no allocation) and
    // portable where execvpe is not.
    if (!cenvp.empty()) environ = const_cast<char**>(cenvp.data());
    ::execvp(cargv[0], const_cast<char* const*>(cargv.data()));
    _exit(127);  // exec failed; 127 mirrors the shell convention
  }

  ChildProcess child;
  child.pid_ = pid;
  return child;
}

std::optional<ExitStatus> ChildProcess::try_wait() {
  if (pid_ <= 0) return std::nullopt;
  if (reaped_) return status_;
  int wstatus = 0;
  const pid_t r = ::waitpid(static_cast<pid_t>(pid_), &wstatus, WNOHANG);
  if (r == 0) return std::nullopt;
  reaped_ = true;
  if (r > 0 && WIFSIGNALED(wstatus)) {
    status_.signaled = true;
    status_.code = WTERMSIG(wstatus);
  } else if (r > 0 && WIFEXITED(wstatus)) {
    status_.signaled = false;
    status_.code = WEXITSTATUS(wstatus);
  } else {
    // waitpid error (ECHILD after an external reap): report as a crash.
    status_.signaled = true;
    status_.code = 0;
  }
  return status_;
}

ExitStatus ChildProcess::wait() {
  while (true) {
    if (auto st = try_wait()) return *st;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ChildProcess::kill_hard() {
  if (pid_ > 0 && !reaped_) ::kill(static_cast<pid_t>(pid_), SIGKILL);
}

void ChildProcess::kill_soft() {
  if (pid_ > 0 && !reaped_) ::kill(static_cast<pid_t>(pid_), SIGTERM);
}

#else  // non-POSIX stub

StatusOr<ChildProcess> ChildProcess::spawn(const std::vector<std::string>&,
                                           const std::string&,
                                           const std::vector<std::string>&) {
  return Status::Io("subprocess spawning is POSIX-only");
}
std::optional<ExitStatus> ChildProcess::try_wait() { return std::nullopt; }
ExitStatus ChildProcess::wait() { return status_; }
void ChildProcess::kill_hard() {}
void ChildProcess::kill_soft() {}

#endif

StatusOr<ExitStatus> run_with_deadline(
    const std::vector<std::string>& argv, const std::string& stdout_path,
    std::size_t deadline_ms, const std::vector<std::string>& env_overrides,
    std::size_t term_grace_ms) {
  StatusOr<ChildProcess> child =
      ChildProcess::spawn(argv, stdout_path, env_overrides);
  if (!child.ok()) return child.status();

  const auto start = std::chrono::steady_clock::now();
  while (true) {
    if (auto st = child->try_wait()) return *st;
    if (deadline_ms > 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (static_cast<std::size_t>(elapsed) >= deadline_ms) {
        // TERM first: a worker's handler can still dump its flight rings
        // into the captured output file. KILL only after the grace.
        child->kill_soft();
        const auto term_at = std::chrono::steady_clock::now();
        ExitStatus st;
        while (true) {
          if (auto ended = child->try_wait()) {
            st = *ended;
            break;
          }
          const auto waited =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - term_at)
                  .count();
          if (static_cast<std::size_t>(waited) >= term_grace_ms) {
            child->kill_hard();
            st = child->wait();
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        st.deadline_killed = true;
        return st;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace vmap
