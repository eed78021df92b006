#pragma once
// Hierarchical RAII tracing spans with Chrome trace_event JSON export.
//
// A TraceSpan marks one timed region; spans nest lexically on a thread and
// across the thread pool: parallel_for captures the submitting thread's
// current span, so work executed on pool workers is parented under the
// span that issued it (each worker still gets its own timeline row in
// chrome://tracing — parent links live in the event args).
//
// Tracing is off unless the VMAP_TRACE environment variable names an
// output file (or trace_enable() is called). Disabled, a span costs one
// relaxed atomic load and writes two POD members — no clock read, no
// allocation, no lock — so instrumented hot paths are unperturbed.
//
// The collected trace is written as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps) at process exit, or earlier via
// trace_flush(); load the file in chrome://tracing or https://ui.perfetto.dev.
// tools/trace_summary.py prints the top spans by self-time from it.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/flight_recorder.hpp"
#include "util/status.hpp"

namespace vmap::json {
class Writer;
}

namespace vmap {

/// True when span collection is active. Relaxed atomic load; the inline
/// fast path of every span checks this first.
bool trace_enabled();

/// Starts collecting spans; the trace is written to `path` on
/// trace_flush() and automatically at process exit. Resolving the
/// VMAP_TRACE environment variable happens lazily on the first
/// trace_enabled() call, so explicit enabling is only needed in tests and
/// tools.
void trace_enable(const std::string& path);

/// Starts collecting spans without an output file: the caller owns export
/// via trace_events_json(). This is the sweep-worker shard mode — the
/// supervisor hands each worker a shard path in the environment and the
/// worker serializes its own document into that shard at exit.
void trace_enable_capture();

/// Stops collecting (already-collected events are kept for flushing).
void trace_disable();

/// Writes every collected event to the enabled path as Chrome trace JSON,
/// atomically (write_file_atomic). Idempotent: rewrites the full file
/// each call. Io error when the path cannot be written, InvalidArgument
/// when tracing was never enabled.
Status trace_flush();

/// Writes the collected events as one complete Chrome trace JSON object
/// value, the document trace_flush() would write. Usable in capture mode
/// (no output path) where trace_flush() refuses.
void trace_events_json(json::Writer& out);

namespace trace_detail {

/// One completed span, as it will appear in the JSON. Exposed so tests
/// can assert on structure without parsing JSON.
struct TraceEvent {
  std::string name;
  std::uint64_t id = 0;      ///< unique span id (1-based)
  std::uint64_t parent = 0;  ///< enclosing span id (0 = root)
  int tid = 0;               ///< per-thread timeline row
  double ts_us = 0.0;        ///< start, microseconds since trace enable
  double dur_us = 0.0;
  static constexpr int kMaxArgs = 4;
  int num_args = 0;
  const char* arg_keys[kMaxArgs] = {};
  double arg_values[kMaxArgs] = {};
};

/// Id of the innermost active span on this thread (0 = none). Used by the
/// thread pool to carry span context onto workers.
std::uint64_t current_span();

/// Snapshot of all completed events, in completion order.
std::vector<TraceEvent> events_for_test();

/// Number of completed events collected so far (0 when disabled since the
/// last reset — the disabled-mode no-op test hinges on this).
std::size_t event_count();

/// Drops all state: events, enabled flag, output path, span-id counter.
/// Test-only; never called on production paths.
void reset_for_test();

std::uint64_t next_span_id();
double now_us();
void set_current_span(std::uint64_t id);

}  // namespace trace_detail

/// Scoped adoption of another thread's span as the local parent. The
/// thread pool wraps each batch drain in one of these so spans opened in
/// the body are parented under the span that submitted the batch.
class TraceContextScope {
 public:
  explicit TraceContextScope(std::uint64_t parent)
      : prev_(trace_detail::current_span()) {
    trace_detail::set_current_span(parent);
  }
  ~TraceContextScope() { trace_detail::set_current_span(prev_); }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII span. Construct at the top of a region; destruction records the
/// event. Name pointers must outlive the span (string literals); dynamic
/// names go through the std::string overload.
///
/// Spans also feed the crash flight recorder (span begin/end into the
/// per-thread ring) even when tracing is off — that is the black box the
/// fatal-signal dump reads. VMAP_FLIGHT=0 turns that feed off too, which
/// restores the one-relaxed-load disabled fast path exactly.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    flight_begin(name);
    if (trace_enabled()) start(name);
  }
  explicit TraceSpan(std::string name) {
    flight_begin(name.c_str());
    if (trace_enabled()) start(std::move(name));
  }
  ~TraceSpan() {
    if (id_ != 0) finish();
    if (flight_name_[0] != '\0')
      flight::record(flight::EventKind::kSpanEnd, flight_name_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric annotation (iteration count, residual, ...).
  /// Key must outlive the span (string literal). No-op when inactive or
  /// once kMaxArgs keys are set.
  void arg(const char* key, double value) {
    if (id_ == 0 || num_args_ >= trace_detail::TraceEvent::kMaxArgs) return;
    arg_keys_[num_args_] = key;
    arg_values_[num_args_] = value;
    ++num_args_;
  }

  bool active() const { return id_ != 0; }

 private:
  void start(std::string name);
  void finish();

  /// Copies the name into the POD buffer (so the dtor's span_end never
  /// touches name_, which start() may have moved out) and records the
  /// begin event. flight_name_[0] == '\0' means "not recorded".
  void flight_begin(const char* name) {
    flight_name_[0] = '\0';
    if (!flight::enabled()) return;
    std::strncpy(flight_name_, name, sizeof(flight_name_) - 1);
    flight_name_[sizeof(flight_name_) - 1] = '\0';
    flight::record(flight::EventKind::kSpanBegin, flight_name_);
  }

  // Members are cheap PODs (plus an empty string) so the disabled path
  // allocates nothing.
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t prev_ = 0;
  double start_us_ = 0.0;
  int num_args_ = 0;
  const char* arg_keys_[trace_detail::TraceEvent::kMaxArgs] = {};
  double arg_values_[trace_detail::TraceEvent::kMaxArgs] = {};
  char flight_name_[flight::kNameBytes] = {};
};

}  // namespace vmap

// Span covering the rest of the enclosing scope. Usage:
//   VMAP_TRACE_SPAN(span, "pipeline.fit_core");
//   span.arg("core", core_index);
#define VMAP_TRACE_SPAN(var, name) ::vmap::TraceSpan var(name)
