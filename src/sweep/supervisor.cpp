#include "sweep/supervisor.hpp"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "sweep/telemetry.hpp"
#include "util/atomic_file.hpp"
#include "util/flight_recorder.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/subprocess.hpp"

namespace vmap::sweep {

namespace {

StatusOr<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Io("cannot read worker output: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::string SweepResult::csv() const {
  std::string out =
      "job,scenario,pads,density,layers,cores,vdd_offset,workload,status,"
      "sensors,placement,te,rel_err\n";
  for (const SweepRow& row : rows) {
    const Scenario& sc = row.scenario;
    out += std::to_string(row.job_index) + "," + sc.id() + "," +
           grid::pad_arrangement_name(sc.pads) + "," +
           exact_double(sc.density) + "," + (sc.two_layer ? "2" : "1") + "," +
           std::to_string(sc.cores_x) + "x" + std::to_string(sc.cores_y) +
           "," + exact_double(sc.vdd_offset) + "," + sc.workload + ",";
    if (row.completed) {
      out += "completed," + std::to_string(row.result.sensors) + "," +
             hex64(row.result.placement) + "," + exact_double(row.result.te) +
             "," + exact_double(row.result.rel_err);
    } else {
      out += "quarantined:" + row.failure_class + ",0,,,";
    }
    out += "\n";
  }
  return out;
}

std::string SweepResult::json(std::uint64_t matrix_hash,
                              const std::string& telemetry_json) const {
  // Only deterministic fields: no attempt counts, no resume bookkeeping,
  // no timings — the bytes must not depend on how the sweep got here.
  json::Writer w;
  w.begin_object().field("schema", 1).field("matrix_hash",
                                            "0x" + hex64(matrix_hash));
  w.field("jobs", jobs_total).key("rows").begin_array();
  for (const SweepRow& row : rows) {
    w.begin_object().field("job", row.job_index);
    w.field("scenario", row.scenario.id());
    w.field("status", row.completed ? std::string("completed")
                                    : "quarantined:" + row.failure_class);
    if (row.completed) {
      w.field("sensors", row.result.sensors);
      w.field("placement", "0x" + hex64(row.result.placement));
      w.field("te", row.result.te).field("rel_err", row.result.rel_err);
    }
    w.end_object();
  }
  w.end_array();
  if (!telemetry_json.empty()) w.key("telemetry").raw(telemetry_json);
  w.end_object();
  return w.take();
}

SweepSupervisor::SweepSupervisor(ScenarioMatrix matrix, SweepOptions options)
    : matrix_(std::move(matrix)), options_(std::move(options)) {}

namespace {
std::mutex g_journal_mutex;
}  // namespace

StatusOr<JobResult> SweepSupervisor::run_attempt(
    std::size_t job_index, const Scenario& scenario, std::size_t attempt,
    std::string* failure_class) {
  const ChaosConfig& chaos = options_.chaos;
  const bool inject =
      !chaos.mode.empty() && chaos.mode.rfind("worker_", 0) == 0 &&
      attempt == 0 && chaos.every_nth > 0 &&
      job_index % chaos.every_nth == 0;

  {
    JournalRecord rec;
    rec.event = JobEvent::kDispatched;
    rec.job_index = job_index;
    rec.scenario_hash = scenario.hash();
    rec.attempt = attempt;
    if (inject) rec.detail = "inject=" + chaos.mode;
    std::lock_guard<std::mutex> lock(g_journal_mutex);
    const Status st = journal_.append(rec);
    if (!st.ok()) {
      *failure_class = "journal_append";
      return st;
    }
  }

  std::vector<std::string> argv = options_.worker_argv;
  argv.push_back("--scenario");
  argv.push_back(scenario.spec());
  argv.push_back("--job");
  argv.push_back(std::to_string(job_index));
  argv.push_back("--attempt");
  argv.push_back(std::to_string(attempt));
  if (inject) {
    argv.push_back("--inject");
    argv.push_back(chaos.mode);
  }
  const std::string out_path =
      options_.work_dir + "/job_" + std::to_string(job_index) + ".out";

  // An attempt that is *known* to hang gets the short chaos deadline; the
  // enforcement path (TERM, grace, KILL on expiry, classify, retry) is
  // identical.
  const std::size_t deadline =
      inject && chaos.mode == "worker_hang" ? chaos.injected_deadline_ms
                                            : options_.deadline_ms;

  // With telemetry on, hand the worker its shard path and blank out
  // VMAP_TRACE: inherited, every worker would clobber the supervisor's
  // own trace file; the shard is the only per-worker trace output.
  std::vector<std::string> env;
  if (telemetry_on_) {
    env.push_back(std::string(kShardEnv) + "=" +
                  shard_path_for_job(options_.work_dir, job_index));
    env.push_back("VMAP_TRACE=");
  }

  StatusOr<ExitStatus> exit =
      run_with_deadline(argv, out_path, deadline, env);

  Status failure;
  if (!exit.ok()) {
    *failure_class = "spawn_failure";
    failure = Status::Io("worker spawn failed").with_cause(exit.status());
  } else if (exit->deadline_killed) {
    *failure_class = "hang_timeout";
    failure = Status::Timeout("worker exceeded " + std::to_string(deadline) +
                              " ms deadline");
  } else if (exit->signaled) {
    *failure_class = "crash_signal_" + std::to_string(exit->code);
    failure = Status::Io("worker killed by signal " +
                         std::to_string(exit->code));
  } else if (exit->code != 0) {
    *failure_class = "exit_" + std::to_string(exit->code);
    failure = Status::Io("worker exited with code " +
                         std::to_string(exit->code));
  } else {
    StatusOr<std::string> output = read_file(out_path);
    if (!output.ok()) {
      *failure_class = "garbage_output";
      failure = Status::Corruption("worker output unreadable")
                    .with_cause(output.status());
    } else {
      StatusOr<JobResult> result = parse_result_output(*output);
      if (result.ok()) {
        std::remove(out_path.c_str());
        if (telemetry_on_) {
          // The job ended clean: any flight tail from an earlier failed
          // attempt is stale now, and the shard (written by the worker's
          // atexit hook before it exited) gets a journal record so the
          // artifact is traceable from the replay alone.
          std::remove(
              flight_path_for_job(options_.work_dir, job_index).c_str());
          const std::string shard =
              shard_path_for_job(options_.work_dir, job_index);
          if (std::ifstream(shard).good()) {
            JournalRecord rec;
            rec.event = JobEvent::kShardWritten;
            rec.job_index = job_index;
            rec.scenario_hash = scenario.hash();
            rec.attempt = attempt;
            rec.detail = shard;
            std::lock_guard<std::mutex> lock(g_journal_mutex);
            const Status st = journal_.append(rec);
            if (!st.ok()) return st;
          }
        }
        return result;
      }
      *failure_class = "garbage_output";
      failure = result.status();
    }
  }

  // Failed attempt: before journaling, salvage the worker's flight-
  // recorder tail out of its captured output (the crash/TERM handlers
  // dump "FLIGHT ..." lines to stderr). The latest failure's tail wins;
  // a later clean attempt deletes it again.
  if (telemetry_on_) {
    StatusOr<std::string> captured = read_file(out_path);
    if (captured.ok()) {
      const std::vector<flight::Event> tail = flight::parse_dump(*captured);
      if (!tail.empty())
        (void)write_file_atomic(
            flight_path_for_job(options_.work_dir, job_index),
            flight::format_events(tail));
    }
  }

  if (options_.verbose)
    VMAP_LOG(kWarn) << "sweep job " << job_index << " attempt " << attempt
                    << " failed (" << *failure_class
                    << "): " << failure.to_string();
  {
    JournalRecord rec;
    rec.event = JobEvent::kFailed;
    rec.job_index = job_index;
    rec.scenario_hash = scenario.hash();
    rec.attempt = attempt;
    rec.detail = *failure_class;
    std::lock_guard<std::mutex> lock(g_journal_mutex);
    const Status st = journal_.append(rec);
    if (!st.ok()) return st;
  }
  return failure;
}

Status SweepSupervisor::run_job(std::size_t job_index,
                                const Scenario& scenario, SweepRow& row) {
  RetryOptions retry;
  retry.max_attempts = options_.max_attempts;
  retry.base_backoff_ms = options_.base_backoff_ms;
  retry.backoff_multiplier = options_.backoff_multiplier;

  std::string failure_class;
  std::size_t attempt = 0;
  StatusOr<JobResult> result =
      retry_with_backoff(retry, [&]() -> StatusOr<JobResult> {
        const std::size_t k = attempt++;
        return run_attempt(job_index, scenario, k, &failure_class);
      });
  row.attempts = attempt;

  JournalRecord rec;
  rec.job_index = job_index;
  rec.scenario_hash = scenario.hash();
  rec.attempt = attempt == 0 ? 0 : attempt - 1;
  if (result.ok()) {
    row.completed = true;
    row.result = *result;
    rec.event = JobEvent::kCompleted;
    rec.detail = encode_result_payload(*result);
  } else {
    // Retries exhausted: the failure reproduced every time, so treat it as
    // deterministic, record the class, and let the sweep continue.
    row.completed = false;
    row.failure_class = failure_class;
    rec.event = JobEvent::kQuarantined;
    rec.detail = failure_class;
  }
  std::lock_guard<std::mutex> lock(g_journal_mutex);
  return journal_.append(rec);
}

StatusOr<SweepResult> SweepSupervisor::run() {
  const std::vector<Scenario> scenarios = matrix_.expand();
  if (scenarios.empty())
    return Status::InvalidArgument("scenario matrix expands to zero jobs");
  matrix_hash_ = matrix_.hash();
  const char* trace_env = std::getenv("VMAP_TRACE");
  telemetry_on_ =
      options_.telemetry == TelemetryMode::kOn ||
      (options_.telemetry == TelemetryMode::kAuto && trace_env && *trace_env);
  const std::string journal_path = options_.work_dir + "/sweep.journal";

  SweepResult result;
  result.jobs_total = scenarios.size();
  result.rows.resize(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    result.rows[i].job_index = i;
    result.rows[i].scenario = scenarios[i];
  }

  std::vector<std::size_t> pending;
  if (options_.resume) {
    StatusOr<JournalReplay> replay = replay_journal(journal_path);
    if (!replay.ok()) return replay.status();
    if (replay->matrix_hash != matrix_hash_)
      return Status::InvalidArgument(
          "cannot resume: journal was written for a different scenario "
          "matrix: " + journal_path);
    result.duplicate_terminals = replay->duplicate_terminals;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const auto completed = replay->completed.find(i);
      if (completed != replay->completed.end()) {
        if (completed->second.scenario_hash != scenarios[i].hash())
          return Status::Corruption(
              "journal completion record does not match scenario " +
              std::to_string(i) + ": " + journal_path);
        StatusOr<JobResult> parsed =
            parse_result_payload(completed->second.detail);
        if (!parsed.ok())
          return Status::Corruption(
                     "journal completion payload unparseable for job " +
                     std::to_string(i) + ": " + journal_path)
              .with_cause(parsed.status());
        result.rows[i].completed = true;
        result.rows[i].result = *parsed;
        result.rows[i].from_journal = true;
        ++result.jobs_skipped_resume;
        continue;
      }
      const auto quarantined = replay->quarantined.find(i);
      if (quarantined != replay->quarantined.end()) {
        result.rows[i].completed = false;
        result.rows[i].failure_class = quarantined->second.detail;
        result.rows[i].from_journal = true;
        ++result.jobs_skipped_resume;
        continue;
      }
      pending.push_back(i);  // fresh or in-flight at the kill: re-run
    }
    StatusOr<SweepJournal> journal =
        SweepJournal::open_append(journal_path, matrix_hash_);
    if (!journal.ok()) return journal.status();
    journal_ = std::move(*journal);
  } else {
    StatusOr<SweepJournal> journal =
        SweepJournal::create(journal_path, matrix_hash_);
    if (!journal.ok()) return journal.status();
    journal_ = std::move(*journal);
    for (std::size_t i = 0; i < scenarios.size(); ++i) pending.push_back(i);
  }

  // Dispatch: a small crew of supervisor threads, each claiming the next
  // pending job and driving it through spawn/deadline/retry/terminal-state.
  // Rows are disjoint slots, so only the journal needs a lock.
  std::atomic<std::size_t> next{0};
  const std::size_t crew =
      std::max<std::size_t>(1, std::min(options_.parallel, pending.size()));
  std::vector<Status> crew_status(crew);
  std::vector<std::thread> threads;
  threads.reserve(crew);
  for (std::size_t t = 0; t < crew; ++t) {
    threads.emplace_back([&, t]() {
      while (true) {
        const std::size_t slot = next.fetch_add(1);
        if (slot >= pending.size()) return;
        const std::size_t job = pending[slot];
        const Status st = run_job(job, scenarios[job], result.rows[job]);
        if (!st.ok()) {
          crew_status[t] = st;
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const Status& st : crew_status)
    if (!st.ok()) return st;

  for (const SweepRow& row : result.rows) {
    if (row.completed)
      ++result.jobs_completed;
    else
      ++result.jobs_quarantined;
    result.attempts_total += row.attempts;
    if (row.attempts > 1) result.retries_total += row.attempts - 1;
  }

  // Telemetry merge: one fleet-wide Chrome trace from the per-job shards
  // plus the deterministic counter aggregates for the JSON report. Runs
  // before the reports so the aggregates section rides along.
  std::string telemetry_json;
  if (telemetry_on_) {
    std::vector<JobTelemetry> jobs;
    jobs.reserve(result.rows.size());
    for (const SweepRow& row : result.rows) {
      JobTelemetry jt;
      jt.job_index = row.job_index;
      jt.scenario = row.scenario;
      jt.status = row.completed ? "completed"
                                : "quarantined:" + row.failure_class;
      jt.shard_path = shard_path_for_job(options_.work_dir, row.job_index);
      if (!row.completed)
        jt.flight_path =
            flight_path_for_job(options_.work_dir, row.job_index);
      jobs.push_back(std::move(jt));
    }
    StatusOr<MergeOutput> merged = merge_job_telemetry(jobs);
    if (!merged.ok()) return merged.status();
    Status trace_st = write_file_atomic(
        options_.work_dir + "/sweep_trace.json", merged->trace_json);
    if (!trace_st.ok()) return trace_st;
    telemetry_json = merged->aggregates_json;
    if (options_.verbose)
      VMAP_LOG(kInfo) << "sweep telemetry: merged " << merged->shards_merged
                      << " shards (" << merged->shards_missing
                      << " missing), " << merged->flight_jobs
                      << " flight tails";
  }

  Status st = write_file_atomic(options_.work_dir + "/sweep_report.csv",
                                result.csv());
  if (!st.ok()) return st;
  st = write_file_atomic(options_.work_dir + "/sweep_report.json",
                         result.json(matrix_hash_, telemetry_json));
  if (!st.ok()) return st;
  return result;
}

}  // namespace vmap::sweep
