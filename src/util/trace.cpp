#include "util/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace vmap {

namespace {

using trace_detail::TraceEvent;

/// All mutable trace state behind one mutex. Span begin/end on the hot
/// path touch it only when tracing is enabled; the coarse span
/// granularity (per solve / per fit, never per inner iteration) keeps the
/// lock uncontended in practice. Leaky singleton: pool workers can flush
/// their last events from static destructors, which may run after any
/// non-leaky global here would already be gone.
struct TraceState {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::vector<std::pair<int, std::string>> thread_names;
  std::string path;
  std::chrono::steady_clock::time_point epoch;
  int next_tid = 0;
  bool atexit_registered = false;
};

TraceState* state() {
  static TraceState* s = new TraceState();  // intentionally leaked
  return s;
}

// -1 = environment not yet consulted, 0 = disabled, 1 = enabled.
std::atomic<int> g_state{-1};
std::atomic<std::uint64_t> g_next_span{0};

thread_local std::uint64_t t_current_span = 0;
thread_local int t_tid = -1;

/// The thread that runs static initialization: the process's main thread.
const std::thread::id g_main_thread = std::this_thread::get_id();

void flush_at_exit() { (void)trace_flush(); }

bool init_from_env() {
  std::lock_guard<std::mutex> lock(state()->mutex);
  int expected = g_state.load(std::memory_order_relaxed);
  if (expected >= 0) return expected == 1;  // raced with another initializer
  const char* env = std::getenv("VMAP_TRACE");
  if (env && *env) {
    // Probe the path now rather than discovering at exit-time flush that a
    // whole run's trace is unwritable (mistyped directory, read-only mount).
    // The probe may create an empty file; a successful flush overwrites it.
    {
      std::ofstream probe(env, std::ios::app);
      if (!probe) {
        VMAP_LOG(kWarn) << "VMAP_TRACE='" << env
                        << "' is not writable; tracing disabled";
        g_state.store(0, std::memory_order_release);
        return false;
      }
    }
    state()->path = env;
    state()->epoch = std::chrono::steady_clock::now();
    if (!state()->atexit_registered) {
      std::atexit(flush_at_exit);
      state()->atexit_registered = true;
    }
    g_state.store(1, std::memory_order_release);
  } else {
    g_state.store(0, std::memory_order_release);
  }
  return env && *env;
}

/// Registers this thread's timeline row on first use; returns its tid.
/// Caller holds the state mutex.
int local_tid_locked(TraceState& s) {
  if (t_tid >= 0) return t_tid;
  t_tid = s.next_tid++;
  const int w = worker_index();
  std::string name =
      w >= 0 ? "worker-" + std::to_string(w)
             : (std::this_thread::get_id() == g_main_thread ? "main"
                                                            : "thread");
  s.thread_names.emplace_back(t_tid, std::move(name));
  return t_tid;
}

/// Serializes the full Chrome trace document. Caller holds the state
/// mutex.
std::string render_json_locked(TraceState& s) {
  std::string json;
  json.reserve(128 + s.events.size() * 160);
  json += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [tid, name] : s.thread_names) {
    if (!first) json += ",\n";
    first = false;
    json += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
            ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + name +
            "\"}}";
  }
  char buf[96];
  for (const auto& e : s.events) {
    if (!first) json += ",\n";
    first = false;
    json += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
            ",\"name\":\"";
    json::escape_into(json, e.name);
    std::snprintf(buf, sizeof(buf), "\",\"ts\":%.3f,\"dur\":%.3f,", e.ts_us,
                  e.dur_us);
    json += buf;
    json += "\"args\":{\"id\":" + std::to_string(e.id) +
            ",\"parent\":" + std::to_string(e.parent);
    for (int a = 0; a < e.num_args; ++a) {
      json += ",\"";
      json::escape_into(json, e.arg_keys[a]);
      std::snprintf(buf, sizeof(buf), "\":%.17g", e.arg_values[a]);
      json += buf;
    }
    json += "}}";
  }
  json += "\n]}\n";
  return json;
}

}  // namespace

bool trace_enabled() {
  const int s = g_state.load(std::memory_order_relaxed);
  if (s < 0) return init_from_env();
  return s == 1;
}

void trace_enable(const std::string& path) {
  TraceState* s = state();
  std::lock_guard<std::mutex> lock(s->mutex);
  s->path = path;
  s->epoch = std::chrono::steady_clock::now();
  if (!s->atexit_registered) {
    std::atexit(flush_at_exit);
    s->atexit_registered = true;
  }
  g_state.store(1, std::memory_order_release);
}

void trace_enable_capture() {
  TraceState* s = state();
  std::lock_guard<std::mutex> lock(s->mutex);
  // No output path and no atexit hook: the embedding process exports the
  // document itself (the sweep worker writes it into its telemetry shard).
  s->path.clear();
  s->epoch = std::chrono::steady_clock::now();
  g_state.store(1, std::memory_order_release);
}

void trace_disable() {
  // Keep -1 semantics out: after an explicit disable the environment is
  // never re-consulted.
  if (g_state.load(std::memory_order_relaxed) < 0) (void)trace_enabled();
  g_state.store(0, std::memory_order_release);
}

Status trace_flush() {
  TraceState* s = state();
  std::string json;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    if (s->path.empty())
      return Status::InvalidArgument("trace_flush: tracing was never enabled");
    path = s->path;
    json = render_json_locked(*s);
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Io("cannot write trace file: " + path);
  out << json;
  out.flush();
  if (!out) return Status::Io("trace file write failed: " + path);
  return Status::Ok();
}

std::string trace_events_json() {
  TraceState* s = state();
  std::lock_guard<std::mutex> lock(s->mutex);
  return render_json_locked(*s);
}

namespace trace_detail {

std::uint64_t current_span() { return t_current_span; }
void set_current_span(std::uint64_t id) { t_current_span = id; }
std::uint64_t next_span_id() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed) + 1;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - state()->epoch)
      .count();
}

std::vector<TraceEvent> events_for_test() {
  TraceState* s = state();
  std::lock_guard<std::mutex> lock(s->mutex);
  return s->events;
}

std::size_t event_count() {
  TraceState* s = state();
  std::lock_guard<std::mutex> lock(s->mutex);
  return s->events.size();
}

void reset_for_test() {
  TraceState* s = state();
  std::lock_guard<std::mutex> lock(s->mutex);
  s->events.clear();
  s->thread_names.clear();
  s->path.clear();
  s->next_tid = 0;
  t_tid = -1;
  g_next_span.store(0, std::memory_order_relaxed);
  g_state.store(0, std::memory_order_release);
}

}  // namespace trace_detail

void TraceSpan::start(std::string name) {
  name_ = std::move(name);
  id_ = trace_detail::next_span_id();
  prev_ = t_current_span;
  parent_ = prev_;
  t_current_span = id_;
  start_us_ = trace_detail::now_us();
}

void TraceSpan::finish() {
  const double end_us = trace_detail::now_us();
  t_current_span = prev_;
  // A span may outlive a trace_disable()/reset; drop it then rather than
  // resurrecting cleared state.
  if (g_state.load(std::memory_order_relaxed) != 1) return;
  TraceState* s = state();
  std::lock_guard<std::mutex> lock(s->mutex);
  TraceEvent e;
  e.name = std::move(name_);
  e.id = id_;
  e.parent = parent_;
  e.tid = local_tid_locked(*s);
  e.ts_us = start_us_;
  e.dur_us = end_us - start_us_;
  e.num_args = num_args_;
  for (int a = 0; a < num_args_; ++a) {
    e.arg_keys[a] = arg_keys_[a];
    e.arg_values[a] = arg_values_[a];
  }
  s->events.push_back(std::move(e));
}

}  // namespace vmap
