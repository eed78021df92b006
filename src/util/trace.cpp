#include "util/trace.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "util/atomic_file.hpp"
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

/// Writes the full Chrome trace document. Caller holds the state mutex.
void render_json_locked(TraceState& s, json::Writer& w) {
  // ts and dur are microseconds; rounding them to the nanosecond keeps
  // the document as compact as the clock is meaningful.
  const auto ns = [](double us) { return std::round(us * 1e3) / 1e3; };
  w.begin_object().field("displayTimeUnit", "ms").key("traceEvents");
  w.begin_array();
  for (const auto& [tid, name] : s.thread_names) {
    w.begin_object().field("ph", "M").field("pid", 1).field("tid", tid);
    w.field("name", "thread_name").key("args").begin_object();
    w.field("name", name).end_object().end_object();
  }
  for (const auto& e : s.events) {
    w.begin_object().field("ph", "X").field("pid", 1).field("tid", e.tid);
    w.field("name", e.name).field("ts", ns(e.ts_us)).field("dur", ns(e.dur_us));
    w.key("args").begin_object().field("id", e.id).field("parent", e.parent);
    for (int a = 0; a < e.num_args; ++a)
      w.field(e.arg_keys[a], e.arg_values[a]);
    w.end_object().end_object();
  }
  w.end_array().end_object();
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
  json::Writer json;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    if (s->path.empty())
      return Status::InvalidArgument("trace_flush: tracing was never enabled");
    path = s->path;
    render_json_locked(*s, json);
  }
  return write_file_atomic(path, json.str());
}

void trace_events_json(json::Writer& out) {
  TraceState* s = state();
  std::lock_guard<std::mutex> lock(s->mutex);
  render_json_locked(*s, out);
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
