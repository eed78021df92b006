// Sweep telemetry: worker shard writing, the supervisor's shard merge
// (deterministic bytes, degradation on missing/corrupt shards), flight
// tail attachment, and the per-axis counter aggregates.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/telemetry.hpp"
#include "util/flight_recorder.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace vmap::sweep {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string temp_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("vmap_telemetry_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A hand-rolled shard document — what a worker's atexit hook writes.
std::string shard_doc(std::size_t job, std::size_t attempt,
                      const std::string& counters_json) {
  return "{\"schema\":1,\"job\":" + std::to_string(job) +
         ",\"attempt\":" + std::to_string(attempt) +
         ",\"scenario\":\"test\",\"metrics\":{\"counters\":" +
         counters_json +
         "},\"trace\":{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,"
         "\"tid\":0,\"name\":\"solve\",\"ts\":10,\"dur\":5,"
         "\"args\":{\"id\":1,\"parent\":0}}]}}\n";
}

JobTelemetry make_job(std::size_t index, const std::string& dir,
                      bool completed, const std::string& workload) {
  JobTelemetry jt;
  jt.job_index = index;
  jt.scenario.workload = workload;
  jt.status = completed ? "completed" : "quarantined:crash_signal_6";
  jt.shard_path = shard_path_for_job(dir, index);
  if (!completed) jt.flight_path = flight_path_for_job(dir, index);
  return jt;
}

TEST(TelemetryMerge, MergedTraceBytesAreDeterministic) {
  const std::string dir = temp_dir("determinism");
  write_file(shard_path_for_job(dir, 0), shard_doc(0, 0, "{\"a\":1}"));
  write_file(shard_path_for_job(dir, 1), shard_doc(1, 2, "{\"a\":2}"));
  const std::vector<JobTelemetry> jobs = {make_job(0, dir, true, "wl_a"),
                                          make_job(1, dir, true, "wl_b")};
  const auto first = merge_job_telemetry(jobs);
  const auto second = merge_job_telemetry(jobs);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->trace_json, second->trace_json);
  EXPECT_EQ(first->aggregates_json, second->aggregates_json);
  EXPECT_EQ(first->shards_merged, 2u);
  EXPECT_EQ(first->shards_missing, 0u);

  // The merge reads only the shard files: re-merging after a round trip
  // through disk (what a resumed supervisor does) changes nothing.
  const auto again = merge_job_telemetry(jobs);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->trace_json, first->trace_json);
}

TEST(TelemetryMerge, WorkerEventsAreRemappedToJobPids) {
  const std::string dir = temp_dir("remap");
  write_file(shard_path_for_job(dir, 3), shard_doc(3, 0, "{}"));
  const auto merged =
      merge_job_telemetry({make_job(3, dir, true, "wl")});
  ASSERT_TRUE(merged.ok());
  // Worker wrote pid 1; job 3 must land on pid 5 (supervisor is pid 1,
  // job i is pid i+2). The supervisor's own process row stays pid 1.
  EXPECT_NE(merged->trace_json.find("\"pid\":5"), std::string::npos);
  EXPECT_NE(merged->trace_json.find("\"sweep_supervisor\""),
            std::string::npos);
  EXPECT_NE(merged->trace_json.find("\"job_3 "), std::string::npos);
  EXPECT_NE(merged->trace_json.find("\"job_meta\""), std::string::npos);
  EXPECT_NE(merged->trace_json.find("\"solve\""), std::string::npos);
}

TEST(TelemetryMerge, MissingAndCorruptShardsDegradeToCounts) {
  const std::string dir = temp_dir("degrade");
  write_file(shard_path_for_job(dir, 0), shard_doc(0, 0, "{\"a\":1}"));
  write_file(shard_path_for_job(dir, 1), "{not json at all");
  // Job 2's shard claims to be job 7: a stale or misrouted file must not
  // be attributed to job 2.
  write_file(shard_path_for_job(dir, 2), shard_doc(7, 0, "{\"a\":9}"));
  const std::vector<JobTelemetry> jobs = {
      make_job(0, dir, true, "wl"), make_job(1, dir, true, "wl"),
      make_job(2, dir, true, "wl"), make_job(3, dir, true, "wl")};
  const auto merged = merge_job_telemetry(jobs);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->shards_merged, 1u);
  EXPECT_EQ(merged->shards_missing, 3u);
  // Every job still gets its process rows even without a shard.
  EXPECT_NE(merged->trace_json.find("\"job_3 "), std::string::npos);
  // The misrouted shard's counters are dropped, not misattributed.
  EXPECT_NE(merged->aggregates_json.find("\"a\":1"), std::string::npos);
  EXPECT_EQ(merged->aggregates_json.find("\"a\":9"), std::string::npos);
}

TEST(TelemetryMerge, FlightTailsAttachToQuarantinedJobs) {
  const std::string dir = temp_dir("flight");
  std::vector<flight::Event> tail(2);
  tail[0].seq = 11;
  tail[0].tid = 0;
  tail[0].kind = flight::EventKind::kNote;
  std::snprintf(tail[0].name, sizeof(tail[0].name), "worker.start");
  tail[1].seq = 12;
  tail[1].tid = 0;
  tail[1].kind = flight::EventKind::kCounter;
  tail[1].value = 3.0;
  std::snprintf(tail[1].name, sizeof(tail[1].name), "chaos.inject");
  write_file(flight_path_for_job(dir, 0), flight::format_events(tail));

  const auto merged =
      merge_job_telemetry({make_job(0, dir, false, "wl")});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->flight_jobs, 1u);
  EXPECT_EQ(merged->shards_missing, 1u);  // crashed: no shard, by design
  EXPECT_NE(merged->trace_json.find("\"flight_recorder\""),
            std::string::npos);
  EXPECT_NE(merged->trace_json.find("flight:note:worker.start"),
            std::string::npos);
  EXPECT_NE(merged->trace_json.find("flight:counter:chaos.inject"),
            std::string::npos);
  EXPECT_NE(merged->trace_json.find("quarantined:crash_signal_6"),
            std::string::npos);
}

TEST(TelemetryMerge, AggregatesSumCountersTotalAndPerAxis) {
  const std::string dir = temp_dir("axes");
  write_file(shard_path_for_job(dir, 0),
             shard_doc(0, 0, "{\"solves\":2,\"steps\":10}"));
  write_file(shard_path_for_job(dir, 1),
             shard_doc(1, 0, "{\"solves\":3,\"steps\":20}"));
  const auto merged = merge_job_telemetry(
      {make_job(0, dir, true, "wl_a"), make_job(1, dir, true, "wl_b")});
  ASSERT_TRUE(merged.ok());
  const std::string& agg = merged->aggregates_json;
  EXPECT_NE(agg.find("\"solves\":5"), std::string::npos);   // total
  EXPECT_NE(agg.find("\"steps\":30"), std::string::npos);
  // Per-workload split keeps the per-job values apart.
  const StatusOr<json::Value> doc = json::parse(agg);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const json::Value* by_axis = doc->find("by_axis");
  ASSERT_NE(by_axis, nullptr);
  const json::Value* by_workload = by_axis->find("workload");
  ASSERT_NE(by_workload, nullptr);
  const json::Value* wl_a = by_workload->find("wl_a");
  const json::Value* wl_b = by_workload->find("wl_b");
  ASSERT_NE(wl_a, nullptr);
  ASSERT_NE(wl_b, nullptr);
  EXPECT_EQ(json::serialize(*wl_a), "{\"solves\":2,\"steps\":10}");
  EXPECT_EQ(json::serialize(*wl_b), "{\"solves\":3,\"steps\":20}");
  // Jobs share every other axis, so those aggregate to the totals.
  EXPECT_NE(agg.find("\"pads\""), std::string::npos);
  EXPECT_NE(agg.find("\"density\""), std::string::npos);
}

TEST(TelemetryWorker, InitAndShardWriteThroughTheEnvContract) {
  const std::string dir = temp_dir("worker");
  const std::string shard = shard_path_for_job(dir, 4);
  ASSERT_EQ(::setenv(kShardEnv, shard.c_str(), 1), 0);
  EXPECT_TRUE(init_worker_telemetry_from_env(4, 1, "pads=square;wl=test"));
  metrics::counter("telemetry_test.solves").add(2);
  {
    TraceSpan span("telemetry_test.span");
  }
  ASSERT_TRUE(write_telemetry_shard().ok());
  ::unsetenv(kShardEnv);

  const std::string doc = slurp(shard);
  EXPECT_NE(doc.find("\"job\":4"), std::string::npos);
  EXPECT_NE(doc.find("\"attempt\":1"), std::string::npos);
  EXPECT_NE(doc.find("pads=square;wl=test"), std::string::npos);
  EXPECT_NE(doc.find("telemetry_test.solves"), std::string::npos);
  EXPECT_NE(doc.find("telemetry_test.span"), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);

  // The shard is a valid merge input for the job it names.
  JobTelemetry jt;
  jt.job_index = 4;
  jt.status = "completed";
  jt.shard_path = shard;
  const auto merged = merge_job_telemetry({jt});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->shards_merged, 1u);
  EXPECT_NE(merged->trace_json.find("telemetry_test.span"),
            std::string::npos);
}

TEST(TelemetryWorker, NoEnvMeansNoShard) {
  ::unsetenv(kShardEnv);
  EXPECT_FALSE(init_worker_telemetry_from_env(0, 0, "spec"));
}

}  // namespace
}  // namespace vmap::sweep
