#include "sweep/telemetry.hpp"

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "grid/power_grid.hpp"
#include "util/atomic_file.hpp"
#include "util/flight_recorder.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace vmap::sweep {

namespace {

// --- worker side ------------------------------------------------------

/// Leaky singleton: the atexit hook may run after main()'s locals are
/// gone, and the state must survive until then.
struct WorkerShard {
  std::string path;
  std::size_t job = 0;
  std::size_t attempt = 0;
  std::string spec;
  bool armed = false;
};

WorkerShard* worker_shard() {
  static WorkerShard* s = new WorkerShard();  // intentionally leaked
  return s;
}

void shard_at_exit() { (void)write_telemetry_shard(); }

// --- supervisor side --------------------------------------------------

bool read_file_to(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

void set_member(json::Value& obj, const std::string& key, json::Value v) {
  for (auto& [k, val] : obj.mutable_object()) {
    if (k == key) {
      val = std::move(v);
      return;
    }
  }
  obj.mutable_object().emplace_back(key, std::move(v));
}

/// Loads and validates one shard document. False (and untouched output)
/// when the file is absent, unparseable, or names a different job — the
/// merge degrades to a counted gap, it never aborts the sweep.
bool load_shard(const JobTelemetry& job, json::Value& shard) {
  std::string bytes;
  if (!read_file_to(job.shard_path, bytes)) return false;
  StatusOr<json::Value> doc = json::parse(bytes);
  if (!doc.ok() || !doc->is_object()) return false;
  const json::Value* job_field = doc->find("job");
  if (!job_field || !job_field->is_number() ||
      static_cast<std::size_t>(job_field->as_number()) != job.job_index)
    return false;
  const json::Value* trace = doc->find("trace");
  if (!trace || !trace->is_object() || !trace->find("traceEvents") ||
      !trace->find("traceEvents")->is_array())
    return false;
  shard = std::move(*doc);
  return true;
}

/// The six scenario axes, as (axis name, canonical value) pairs — the
/// keys the aggregate section groups counters under.
std::vector<std::pair<std::string, std::string>> axis_values(
    const Scenario& sc) {
  return {
      {"pads", grid::pad_arrangement_name(sc.pads)},
      {"density", exact_double(sc.density)},
      {"layers", sc.two_layer ? "2" : "1"},
      {"cores", std::to_string(sc.cores_x) + "x" + std::to_string(sc.cores_y)},
      {"vdd_offset", exact_double(sc.vdd_offset)},
      {"workload", sc.workload},
  };
}

using CounterMap = std::map<std::string, std::uint64_t>;

void write_counter_map(json::Writer& out, const CounterMap& counters) {
  out.begin_object();
  for (const auto& [name, value] : counters) out.field(name, value);
  out.end_object();
}

/// Opens one merged-trace event and writes its ph, pid, tid and name.
json::Writer& begin_event(json::Writer& t, const char* ph, std::size_t pid,
                          int tid, std::string_view name) {
  t.begin_object().field("ph", ph).field("pid", pid).field("tid", tid);
  return t.field("name", name);
}

}  // namespace

bool init_worker_telemetry_from_env(std::size_t job, std::size_t attempt,
                                    const std::string& scenario_spec) {
  const char* env = std::getenv(kShardEnv);
  if (!env || !*env) return false;
  WorkerShard* s = worker_shard();
  s->path = env;
  s->job = job;
  s->attempt = attempt;
  s->spec = scenario_spec;
  if (!s->armed) std::atexit(shard_at_exit);
  s->armed = true;
  trace_enable_capture();
  return true;
}

Status write_telemetry_shard() {
  WorkerShard* s = worker_shard();
  if (!s->armed) return Status::Ok();
  json::Writer doc;
  doc.begin_object().field("schema", 1).field("job", s->job);
  doc.field("attempt", s->attempt).field("scenario", s->spec);
  metrics::snapshot_json(doc.key("metrics"));
  trace_events_json(doc.key("trace"));
  doc.end_object();
  return write_file_atomic(s->path, doc.str());
}

std::string shard_path_for_job(const std::string& work_dir, std::size_t job) {
  return work_dir + "/job_" + std::to_string(job) + ".shard.json";
}

std::string flight_path_for_job(const std::string& work_dir, std::size_t job) {
  return work_dir + "/job_" + std::to_string(job) + ".flight";
}

StatusOr<MergeOutput> merge_job_telemetry(
    const std::vector<JobTelemetry>& jobs) {
  MergeOutput out;
  json::Writer t;
  t.begin_object().field("displayTimeUnit", "ms").key("traceEvents");
  t.begin_array();
  begin_event(t, "M", 1, 0, "process_name").key("args").begin_object();
  t.field("name", "sweep_supervisor").end_object().end_object();

  CounterMap counters_total;
  // axis -> axis value -> counter name -> summed value. std::map keys
  // keep every aggregate section sorted, hence byte-stable.
  std::map<std::string, std::map<std::string, CounterMap>> by_axis;

  for (const JobTelemetry& job : jobs) {
    const std::size_t pid = job.job_index + 2;
    begin_event(t, "M", pid, 0, "process_name").key("args").begin_object();
    t.field("name", "job_" + std::to_string(job.job_index) + " " +
                        job.scenario.id());
    t.end_object().end_object();
    begin_event(t, "M", pid, 0, "process_labels").key("args").begin_object();
    t.field("labels", job.status).end_object().end_object();

    json::Value shard;
    if (load_shard(job, shard)) {
      ++out.shards_merged;
      const json::Value* attempt = shard.find("attempt");
      const long long attempt_n =
          attempt && attempt->is_number()
              ? static_cast<long long>(attempt->as_number())
              : -1;
      // One instant event carrying the job metadata every job row shows:
      // scenario spec, attempt number, outcome.
      begin_event(t, "i", pid, 0, "job_meta").field("ts", 0).field("s", "p");
      t.key("args").begin_object().field("scenario", job.scenario.spec());
      t.field("attempt", attempt_n).field("status", job.status);
      t.end_object().end_object();

      // Re-emit the worker's events under this job's pid. Serialization
      // goes through the parsed values, so the bytes depend only on the
      // shard contents, never on merge-time state.
      json::Value* trace = const_cast<json::Value*>(shard.find("trace"));
      json::Value* events =
          const_cast<json::Value*>(trace->find("traceEvents"));
      for (json::Value& ev : events->mutable_array()) {
        if (!ev.is_object()) continue;
        set_member(ev, "pid",
                   json::Value::make_number(static_cast<double>(pid)));
        t.value(ev);
      }

      const json::Value* metrics_obj = shard.find("metrics");
      const json::Value* counters =
          metrics_obj ? metrics_obj->find("counters") : nullptr;
      if (counters && counters->is_object()) {
        for (const auto& [name, value] : counters->as_object()) {
          if (!value.is_number()) continue;
          const auto v = static_cast<std::uint64_t>(value.as_number());
          counters_total[name] += v;
          for (const auto& [axis, axis_value] : axis_values(job.scenario))
            by_axis[axis][axis_value][name] += v;
        }
      }
    } else {
      ++out.shards_missing;
    }

    // Quarantined jobs' flight-recorder tails ride along as instant
    // events on a dedicated timeline row (ts is the tail position — the
    // ring has no wall clock, and artificial timestamps keep the merge
    // deterministic).
    std::string flight_text;
    if (!job.flight_path.empty() && read_file_to(job.flight_path,
                                                 flight_text)) {
      const std::vector<flight::Event> tail =
          flight::parse_dump(flight_text);
      if (!tail.empty()) {
        ++out.flight_jobs;
        begin_event(t, "M", pid, 9999, "thread_name").key("args");
        t.begin_object().field("name", "flight_recorder").end_object();
        t.end_object();
        for (std::size_t i = 0; i < tail.size(); ++i) {
          const flight::Event& e = tail[i];
          begin_event(t, "i", pid, 9999,
                      std::string("flight:") +
                          flight::event_kind_name(e.kind) + ":" + e.name);
          t.field("ts", i).field("s", "t").key("args").begin_object();
          t.field("seq", e.seq).field("tid", e.tid).field("value", e.value);
          t.end_object().end_object();
        }
      }
    }
  }
  t.end_array().end_object();
  out.trace_json = t.take();

  json::Writer agg;
  agg.begin_object().field("shards_merged", out.shards_merged);
  agg.field("shards_missing", out.shards_missing);
  agg.field("flight_jobs", out.flight_jobs);
  write_counter_map(agg.key("counters_total"), counters_total);
  agg.key("by_axis").begin_object();
  for (const auto& [axis, values] : by_axis) {
    agg.key(axis).begin_object();
    for (const auto& [value, counters] : values)
      write_counter_map(agg.key(value), counters);
    agg.end_object();
  }
  agg.end_object().end_object();
  out.aggregates_json = agg.take();
  return out;
}

}  // namespace vmap::sweep
