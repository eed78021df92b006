// Tracing-span semantics: lexical nesting, pool-aware parenting across
// parallel_for, the disabled-mode no-op guarantee, and the structure of
// the flushed Chrome trace_event JSON.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace vmap {
namespace {

using trace_detail::TraceEvent;

/// Resets trace state and the thread-count default when a test ends.
class TraceGuard {
 public:
  TraceGuard() { trace_detail::reset_for_test(); }
  ~TraceGuard() {
    trace_detail::reset_for_test();
    set_thread_count(0);
  }
};

const TraceEvent& find_event(const std::vector<TraceEvent>& events,
                             const std::string& name) {
  const auto it =
      std::find_if(events.begin(), events.end(),
                   [&](const TraceEvent& e) { return e.name == name; });
  EXPECT_NE(it, events.end()) << "missing span: " << name;
  return *it;
}

TEST(Trace, DisabledSpansRecordNothing) {
  TraceGuard guard;
  ASSERT_FALSE(trace_enabled());
  {
    TraceSpan outer("outer");
    EXPECT_FALSE(outer.active());
    outer.arg("ignored", 1.0);
    TraceSpan inner("inner");
    EXPECT_FALSE(inner.active());
  }
  EXPECT_EQ(trace_detail::event_count(), 0u);
  EXPECT_EQ(trace_detail::current_span(), 0u);
}

TEST(Trace, LexicalNestingLinksParents) {
  TraceGuard guard;
  trace_enable("trace_test_nesting.json");
  {
    TraceSpan outer("outer");
    ASSERT_TRUE(outer.active());
    {
      TraceSpan inner("inner");
      TraceSpan innermost("innermost");
      (void)innermost;
      (void)inner;
    }
  }
  const auto events = trace_detail::events_for_test();
  ASSERT_EQ(events.size(), 3u);
  const TraceEvent& outer = find_event(events, "outer");
  const TraceEvent& inner = find_event(events, "inner");
  const TraceEvent& innermost = find_event(events, "innermost");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(innermost.parent, inner.id);
  // Completion order is innermost-first; ids are unique.
  std::set<std::uint64_t> ids{outer.id, inner.id, innermost.id};
  EXPECT_EQ(ids.size(), 3u);
  // A child starts no earlier and ends no later than its parent.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-6);
  std::remove("trace_test_nesting.json");
}

TEST(Trace, ArgsAreCapturedUpToTheCap) {
  TraceGuard guard;
  trace_enable("trace_test_args.json");
  {
    TraceSpan span("argful");
    span.arg("a", 1.0);
    span.arg("b", 2.5);
    span.arg("c", 3.0);
    span.arg("d", 4.0);
    span.arg("overflow", 5.0);  // beyond kMaxArgs: dropped
  }
  const auto events = trace_detail::events_for_test();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].num_args, TraceEvent::kMaxArgs);
  EXPECT_STREQ(events[0].arg_keys[0], "a");
  EXPECT_EQ(events[0].arg_values[1], 2.5);
  std::remove("trace_test_args.json");
}

TEST(Trace, ParallelForParentsWorkUnderSubmittingSpan) {
  TraceGuard guard;
  set_thread_count(4);
  trace_enable("trace_test_pool.json");
  std::uint64_t submitting_id = 0;
  {
    TraceSpan driver("driver");
    submitting_id = trace_detail::current_span();
    ASSERT_NE(submitting_id, 0u);
    // Each body sleeps so pool workers get scheduled even on one CPU —
    // otherwise the submitting thread can drain the whole batch alone.
    parallel_for(0, 64, [&](std::size_t i) {
      TraceSpan work("work");
      work.arg("i", static_cast<double>(i));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  const auto events = trace_detail::events_for_test();
  ASSERT_EQ(events.size(), 65u);
  std::set<int> tids;
  for (const TraceEvent& e : events) {
    if (e.name != "work") continue;
    EXPECT_EQ(e.parent, submitting_id)
        << "work span not parented under the driver";
    tids.insert(e.tid);
  }
  // 64 chunks across a 4-thread pool: more than one timeline row must
  // have executed work (the submitting thread participates too).
  EXPECT_GE(tids.size(), 2u);
  std::remove("trace_test_pool.json");
}

TEST(Trace, PoolContextIsRestoredAfterTheBatch) {
  TraceGuard guard;
  set_thread_count(2);
  trace_enable("trace_test_restore.json");
  {
    TraceSpan driver("driver");
    const std::uint64_t before = trace_detail::current_span();
    parallel_for(0, 8, [&](std::size_t) {});
    // The drain's TraceContextScope must not leak into the caller.
    EXPECT_EQ(trace_detail::current_span(), before);
    TraceSpan after("after");
    (void)after;
  }
  const auto events = trace_detail::events_for_test();
  const TraceEvent& driver = find_event(events, "driver");
  const TraceEvent& after = find_event(events, "after");
  EXPECT_EQ(after.parent, driver.id);
  std::remove("trace_test_restore.json");
}

TEST(Trace, FlushWritesLoadableChromeTraceJson) {
  TraceGuard guard;
  const std::string path = "trace_test_flush.json";
  // Every character class the JSON string escaper rewrites.
  const std::string awkward = "quote\" backslash\\ newline\n tab\t ctl\x01";
  trace_enable(path);
  {
    TraceSpan outer("phase");
    outer.arg("value", 42.0);
    parallel_for(0, 16, [&](std::size_t) { TraceSpan w("work"); });
    TraceSpan odd(awkward);
  }
  ASSERT_TRUE(trace_flush().ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  // Structural sanity of the trace_event format.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
  // Thread-name metadata rows are present.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // The document parses, and the escaped span name reads back unchanged.
  const StatusOr<json::Value> doc = json::parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t matches = 0;
  for (const json::Value& e : events->as_array()) {
    const json::Value* name = e.find("name");
    if (name != nullptr && name->as_string() == awkward) ++matches;
  }
  EXPECT_EQ(matches, 1u);
  std::remove(path.c_str());
}

TEST(Trace, FlushWithoutEnableFails) {
  TraceGuard guard;
  EXPECT_FALSE(trace_flush().ok());
}

TEST(Trace, DisableStopsCollection) {
  TraceGuard guard;
  trace_enable("trace_test_disable.json");
  { TraceSpan s("before"); }
  trace_disable();
  { TraceSpan s("after"); }
  const auto events = trace_detail::events_for_test();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "before");
  std::remove("trace_test_disable.json");
}

}  // namespace
}  // namespace vmap
