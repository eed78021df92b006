// Metrics-registry semantics: counter/gauge arithmetic, histogram bucket
// math, the enable switch, snapshot/JSON shape, and the run-report JSON
// round trip through bench/common's write_report.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "linalg/kernels.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace vmap {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Metrics, CounterAddsAndResets) {
  metrics::Counter& c = metrics::counter("test.counter.basic");
  c.reset();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, RegistryReturnsTheSameInstance) {
  metrics::Counter& a = metrics::counter("test.counter.same");
  metrics::Counter& b = metrics::counter("test.counter.same");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, GaugeSetAndAdd) {
  metrics::Gauge& g = metrics::gauge("test.gauge.basic");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBucketMath) {
  metrics::Histogram& h =
      metrics::histogram("test.hist.buckets", {1.0, 2.0, 4.0});
  h.reset();
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0}) h.observe(v);
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);      // 0.5, 1.0   (<= 1)
  EXPECT_EQ(snap.counts[1], 2u);      // 1.5, 2.0   (<= 2)
  EXPECT_EQ(snap.counts[2], 2u);      // 3.0, 4.0   (<= 4)
  EXPECT_EQ(snap.counts[3], 1u);      // 100        (overflow)
  EXPECT_EQ(snap.count, 7u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.0 + 100.0);
}

TEST(Metrics, IterationBucketsResolveLongSolves) {
  // Group-lasso solves can take over 10,000 sweeps; they must land in a
  // finite bucket, not in +Inf where every quantile clamps to the top bound.
  metrics::Histogram h(metrics::default_iteration_buckets());
  h.observe(10000.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.counts.back(), 0u);
  const double p50 = metrics::histogram_quantile(snap, 0.5);
  EXPECT_GT(p50, 8192.0);
  EXPECT_LE(p50, 16384.0);
}

TEST(Metrics, HistogramKeepsFirstBucketLayout) {
  metrics::Histogram& a =
      metrics::histogram("test.hist.layout", {1.0, 10.0});
  metrics::Histogram& b =
      metrics::histogram("test.hist.layout", {99.0});
  EXPECT_EQ(&a, &b);
  ASSERT_EQ(b.bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(b.bounds()[1], 10.0);
}

TEST(Metrics, DisabledRecordingIsANoOp) {
  metrics::Counter& c = metrics::counter("test.counter.disabled");
  metrics::Gauge& g = metrics::gauge("test.gauge.disabled");
  metrics::Histogram& h = metrics::histogram("test.hist.disabled", {1.0});
  c.reset();
  g.reset();
  h.reset();
  metrics::set_enabled(false);
  c.add(7);
  g.set(7.0);
  h.observe(7.0);
  metrics::set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.add();  // recording resumes once re-enabled
  EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, CountersAreThreadSafeUnderThePool) {
  set_thread_count(4);
  metrics::Counter& c = metrics::counter("test.counter.pool");
  c.reset();
  parallel_for(0, 1000, [&](std::size_t) { c.add(); });
  set_thread_count(0);
  EXPECT_EQ(c.value(), 1000u);
}

TEST(Metrics, SnapshotJsonHasAllSections) {
  metrics::counter("test.json.counter").add(2);
  metrics::gauge("test.json.gauge").set(1.5);
  metrics::histogram("test.json.hist", {1.0}).observe(0.5);
  json::Writer writer;
  metrics::snapshot_json(writer);
  const std::string json = writer.take();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Metrics, QuantileInterpolatesWithinABucket) {
  // 100 observations spread uniformly through one (0, 10] bucket: rank
  // q*100 lands q of the way through it, so the interpolated quantile is
  // simply 10q — checkable exactly.
  metrics::Histogram& h =
      metrics::histogram("test.hist.quantile.uniform", {10.0, 20.0});
  h.reset();
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.90), 9.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.99), 9.9);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 1.0), 10.0);
}

TEST(Metrics, QuantileCrossesBuckets) {
  // 50 observations in (0,1], 50 in (1,2]: the median sits exactly at
  // the bucket edge; p75 is halfway into the second bucket.
  metrics::Histogram& h =
      metrics::histogram("test.hist.quantile.cross", {1.0, 2.0});
  h.reset();
  for (int i = 0; i < 50; ++i) h.observe(0.5);
  for (int i = 0; i < 50; ++i) h.observe(1.5);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.50), 1.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.75), 1.5);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.25), 0.5);
}

TEST(Metrics, QuantileClampsOverflowToLastBound) {
  // Everything in the +Inf overflow bucket: the histogram cannot resolve
  // beyond its last finite bound, so every quantile clamps there.
  metrics::Histogram& h =
      metrics::histogram("test.hist.quantile.overflow", {1.0, 8.0});
  h.reset();
  for (int i = 0; i < 10; ++i) h.observe(1000.0);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.5), 8.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.99), 8.0);
}

TEST(Metrics, QuantileOfEmptyHistogramIsZero) {
  metrics::Histogram& h =
      metrics::histogram("test.hist.quantile.empty", {1.0});
  h.reset();
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(h.snapshot(), 0.99), 0.0);
}

TEST(Metrics, ResetAllZeroesEverything) {
  metrics::Counter& c = metrics::counter("test.reset.counter");
  metrics::Histogram& h = metrics::histogram("test.reset.hist", {1.0});
  c.add(5);
  h.observe(0.5);
  metrics::reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(RunReport, JsonRoundTripThroughWriteReport) {
  const std::string path = "metrics_test_report.json";
  CliArgs args("metrics_test");
  args.add_flag("report", "", "output path");
  const char* argv[] = {"metrics_test", "--report", path.c_str()};
  ASSERT_TRUE(args.parse(3, argv));

  metrics::counter("test.report.counter").add(9);
  benchutil::RunReport report("metrics_test");
  report.scalar("answer", 42.0);
  report.scalar("fraction", 2.5);
  report.timing("phase_one", 12.5);
  benchutil::write_report(args, nullptr, report);

  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"answer\":42"), std::string::npos);
  EXPECT_NE(json.find("\"fraction\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"phase_one\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"calibration_ms\""), std::string::npos);
  const StatusOr<json::Value> parsed = json::parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const json::Value* schema = parsed.value().find("schema");
  ASSERT_NE(schema, nullptr);
  ASSERT_TRUE(schema->is_number());
  EXPECT_EQ(schema->as_number(), 1.0);
  const json::Value* bench = parsed.value().find("bench");
  ASSERT_NE(bench, nullptr);
  ASSERT_TRUE(bench->is_string());
  EXPECT_EQ(bench->as_string(), "metrics_test");
  const json::Value* simd = parsed.value().find("simd");
  ASSERT_NE(simd, nullptr);
  ASSERT_TRUE(simd->is_string());
  EXPECT_EQ(simd->as_string(),
            linalg::kern::simd_level_name(linalg::kern::simd_level()));
  const json::Value* peak = parsed.value().find("peak_rss_mb");
  ASSERT_NE(peak, nullptr);
  ASSERT_TRUE(peak->is_number());
  EXPECT_GT(peak->as_number(), 0.0);
  EXPECT_NE(json.find("\"resilience\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"test.report.counter\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  std::remove(path.c_str());
}

TEST(RunReport, NoPathMeansNoFile) {
  CliArgs args("metrics_test");
  args.add_flag("report", "", "output path");
  const char* argv[] = {"metrics_test"};
  ASSERT_TRUE(args.parse(1, argv));
  benchutil::RunReport report("unused");
  benchutil::write_report(args, nullptr, report);  // must not throw
  std::ifstream in("");
  EXPECT_FALSE(in.good());
}

}  // namespace
}  // namespace vmap
