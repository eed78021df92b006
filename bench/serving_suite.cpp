// Chaos + throughput harness for the multi-chip monitoring service.
//
// Two halves, one binary:
//
//  * Throughput: a threaded MonitorFleet at each requested shard count
//    serves a synthetic fleet (--chips dies of one design, --samples
//    readings each) and reports readings/sec plus the p99 ingest-to-alarm
//    latency. Wall times go into the run report as calibration-normalized
//    timings; a zero-loss invariant (every admitted reading decided) is
//    checked on every run.
//
//  * Chaos scenarios (--inject): nan_storm, burst_overload, stuck_shard,
//    and checkpoint_kill each drive the fleet through one failure mode and
//    end with the harness proving ZERO fleet-wide alarm loss. The proof is
//    replay-based: the synthetic streams are pure functions of
//    (seed, chip, t), so the harness regenerates exactly the subsequence
//    each healthy chip actually accepted, feeds it through a standalone
//    reference OnlineMonitor, and requires bit-identical counters and the
//    identical alarm-transition sequence. Scenario outcomes are
//    deterministic (pump mode, or timing-independent predicates in
//    threaded mode) and are gated byte-exactly by tools/perf_gate.py.
//
// Any failed invariant exits 1 so CI can gate on the binary directly, with
// or without the report diff.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/online_monitor.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fleet.hpp"
#include "serve/synthetic.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace vmap;
using namespace vmap::serve;

// ---------------------------------------------------------------------------
// Harness plumbing

struct Harness {
  benchutil::RunReport report{"serving_suite"};
  TablePrinter table{{"scenario", "check", "result"}};
  bool ok = true;

  /// Records a deterministic scenario outcome: gated byte-exactly.
  void check(const std::string& scenario, const std::string& name,
             bool passed, double value) {
    report.scalar(scenario + "_" + name, value);
    table.add_row({scenario, name,
                   passed ? TablePrinter::fmt(value, 0)
                          : "FAIL(" + TablePrinter::fmt(value, 0) + ")"});
    if (!passed) {
      ok = false;
      std::fprintf(stderr, "FAIL: %s/%s = %g\n", scenario.c_str(),
                   name.c_str(), value);
    }
  }
  void require(const std::string& scenario, const std::string& name,
               bool passed) {
    check(scenario, name, passed, passed ? 1.0 : 0.0);
  }
};

Reading make_reading(ChipId chip, std::uint64_t seq, linalg::Vector values) {
  Reading r;
  r.chip = chip;
  r.sequence = seq;
  r.values = std::move(values);
  return r;
}

/// Replays `seqs` of one synthetic stream through a standalone reference
/// monitor: the ground truth the fleet's decisions must match bit-exactly.
struct Replay {
  core::OnlineMonitor::Counters counters;
  std::vector<std::uint64_t> transitions;  ///< sequences where alarm flipped
};

Replay replay_reference(const SyntheticFleetSpec& spec,
                        const std::shared_ptr<const core::PlacementModel>& m,
                        ChipId chip, const std::vector<std::uint64_t>& seqs) {
  core::OnlineMonitor monitor =
      make_synthetic_monitor(spec, m, /*fault_tolerant=*/false);
  Replay out;
  bool prev = false;
  for (std::uint64_t t : seqs) {
    const auto d = monitor.observe(synthetic_reading(spec, chip, t));
    if (d.alarm != prev) out.transitions.push_back(t);
    prev = d.alarm;
  }
  out.counters = monitor.counters();
  return out;
}

std::vector<std::uint64_t> iota_seqs(std::uint64_t first, std::uint64_t last) {
  std::vector<std::uint64_t> seqs;
  for (std::uint64_t t = first; t <= last; ++t) seqs.push_back(t);
  return seqs;
}

/// Per-chip alarm-transition sequences, in decision order.
std::map<ChipId, std::vector<std::uint64_t>> transitions_by_chip(
    const std::vector<AlarmEvent>& events) {
  std::map<ChipId, std::vector<std::uint64_t>> by_chip;
  for (const AlarmEvent& e : events) by_chip[e.chip].push_back(e.sequence);
  return by_chip;
}

bool counters_match(const core::OnlineMonitor::Counters& a,
                    const core::OnlineMonitor::Counters& b) {
  return a.alarm == b.alarm && a.crossing_streak == b.crossing_streak &&
         a.safe_streak == b.safe_streak && a.samples == b.samples &&
         a.alarm_samples == b.alarm_samples &&
         a.alarm_episodes == b.alarm_episodes &&
         a.degraded_samples == b.degraded_samples &&
         a.rejected_samples == b.rejected_samples;
}

/// Zero fleet-wide alarm loss: every alarm episode the chips counted is
/// present in the drained event stream (asserted edges), chip by chip.
/// Returns the number of missing/extra asserted events (0 = no loss).
std::uint64_t alarm_loss(const MonitorFleet& fleet,
                         const std::vector<AlarmEvent>& events) {
  std::map<ChipId, std::uint64_t> asserted;
  for (const AlarmEvent& e : events)
    if (e.asserted) ++asserted[e.chip];
  std::uint64_t loss = 0;
  for (ChipId chip = 0; chip < fleet.num_chips(); ++chip) {
    const std::uint64_t episodes = fleet.chip_stats(chip).alarm_episodes;
    const std::uint64_t seen = asserted.count(chip) ? asserted[chip] : 0;
    loss += episodes > seen ? episodes - seen : seen - episodes;
  }
  return loss;
}

// ---------------------------------------------------------------------------
// Scenario: NaN storm
//
// One chip's feed turns into an all-NaN storm mid-run. The domain must
// reject, quarantine, then suspend the chip; an operator resume plus a
// clean probation brings it back. The three healthy neighbors must be
// bit-identical to standalone monitors throughout — the storm may not leak.

void scenario_nan_storm(Harness& h) {
  const std::string kName = "nan_storm";
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 2;
  fc.quarantine_after = 8;
  fc.probation = 16;
  fc.suspend_after = 3;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  constexpr std::size_t kChips = 4;
  constexpr ChipId kVictim = 0;
  constexpr std::uint64_t kSamples = 400;
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);

  linalg::Vector nan_vec(spec.sensors,
                         std::numeric_limits<double>::quiet_NaN());
  for (std::uint64_t t = 1; t <= kSamples; ++t) {
    for (ChipId chip = 0; chip < kChips; ++chip) {
      const bool storm = chip == kVictim && t > 100 && t <= 140;
      fleet.ingest(make_reading(
          chip, t, storm ? nan_vec : synthetic_reading(spec, chip, t)));
    }
    if (t % 25 == 0) fleet.pump();
    // The storm drives the victim to Suspended; the operator lifts it after
    // the feed has recovered, and probation earns the monitor back.
    if (t == 150) {
      fleet.pump();
      h.require(kName, "victim_suspended",
                fleet.chip_mode(kVictim) == ChipMode::kSuspended);
      fleet.resume_chip(kVictim);
    }
  }
  fleet.pump();

  // Containment: every reading the victim sent is accounted for, and the
  // chip recovered to healthy after probation.
  const ChipStats victim = fleet.chip_stats(kVictim);
  h.require(kName, "victim_recovered",
            fleet.chip_mode(kVictim) == ChipMode::kHealthy);
  h.check(kName, "victim_accounted",
          victim.accepted + victim.rejected_nonfinite +
                  victim.dropped_quarantined + victim.dropped_suspended ==
              kSamples,
          static_cast<double>(victim.accepted + victim.rejected_nonfinite +
                              victim.dropped_quarantined +
                              victim.dropped_suspended));
  h.check(kName, "victim_accepted", victim.accepted > 0,
          static_cast<double>(victim.accepted));

  // Isolation: neighbors are bit-identical to standalone monitors.
  const auto states = fleet.persisted_states();
  const auto events = fleet.drain_alarms();
  const auto by_chip = transitions_by_chip(events);
  bool neighbors_match = true;
  for (ChipId chip = 1; chip < kChips; ++chip) {
    const Replay want =
        replay_reference(spec, model, chip, iota_seqs(1, kSamples));
    if (!counters_match(states[chip].monitor, want.counters))
      neighbors_match = false;
    const auto it = by_chip.find(chip);
    const std::vector<std::uint64_t> got =
        it == by_chip.end() ? std::vector<std::uint64_t>{} : it->second;
    if (got != want.transitions) neighbors_match = false;
  }
  h.require(kName, "neighbors_match", neighbors_match);
  h.check(kName, "alarm_loss", alarm_loss(fleet, events) == 0,
          static_cast<double>(alarm_loss(fleet, events)));
}

// ---------------------------------------------------------------------------
// Scenario: burst overload
//
// Bursts larger than the plain-ingest lanes force the reject-newest shed
// policy.
// In pump mode admission is sequential, so the accepted subsequence is
// deterministic: the harness records it at ingest time, replays it through
// reference monitors, and requires bit-identical decisions — overload may
// shed readings (counted), but it may never corrupt or lose an alarm.

void scenario_burst_overload(Harness& h) {
  const std::string kName = "burst_overload";
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 2;
  fc.queue_capacity = 24;
  fc.max_batch = 16;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  constexpr std::size_t kChips = 4;
  constexpr std::uint64_t kBursts = 12;
  constexpr std::uint64_t kBurstLen = 30;  // 60 per shard vs capacity 24
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);

  std::vector<std::vector<std::uint64_t>> accepted_seqs(kChips);
  std::uint64_t shed = 0;
  for (std::uint64_t burst = 0; burst < kBursts; ++burst) {
    for (std::uint64_t i = 1; i <= kBurstLen; ++i) {
      const std::uint64_t t = burst * kBurstLen + i;
      for (ChipId chip = 0; chip < kChips; ++chip) {
        const auto result = fleet.ingest(
            make_reading(chip, t, synthetic_reading(spec, chip, t)));
        if (result.accepted)
          accepted_seqs[chip].push_back(t);
        else
          ++shed;
      }
    }
    fleet.pump();  // drain between bursts — the overload is the burst
  }

  const FleetStats stats = fleet.stats();
  h.check(kName, "shed", shed > 0 && stats.shed == shed,
          static_cast<double>(stats.shed));
  h.require(kName, "admitted_all_decided",
            stats.processed == stats.enqueued);

  // The accepted subsequence decides exactly as a standalone monitor would.
  const auto states = fleet.persisted_states();
  const auto events = fleet.drain_alarms();
  const auto by_chip = transitions_by_chip(events);
  bool replay_match = true;
  for (ChipId chip = 0; chip < kChips; ++chip) {
    const Replay want =
        replay_reference(spec, model, chip, accepted_seqs[chip]);
    if (!counters_match(states[chip].monitor, want.counters))
      replay_match = false;
    const auto it = by_chip.find(chip);
    const std::vector<std::uint64_t> got =
        it == by_chip.end() ? std::vector<std::uint64_t>{} : it->second;
    if (got != want.transitions) replay_match = false;
  }
  h.require(kName, "replay_match", replay_match);
  h.check(kName, "alarm_loss", alarm_loss(fleet, events) == 0,
          static_cast<double>(alarm_loss(fleet, events)));
}

// ---------------------------------------------------------------------------
// Scenario: stuck shard
//
// A chaos delay wedges one shard's worker mid-batch in threaded mode. The
// watchdog must declare the stall, steal the inflight remainder, suspend
// the culprit chip, and hand the shard to a replacement worker — while the
// other shard keeps flowing and no admitted reading is lost. Only
// timing-independent predicates are gated (the failover instant itself is
// scheduler-dependent).

void scenario_stuck_shard(Harness& h) {
  const std::string kName = "stuck_shard";
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 2;
  fc.queue_capacity = 4096;
  fc.stall_timeout_ms = 80.0;
  fc.watchdog_period_ms = 10.0;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  // Chips 0 and 2 share shard 0; chip 1 rides shard 1 (chip % shards).
  for (int c = 0; c < 3; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  fleet.set_chaos_delay_ms(0, 600.0);

  fleet.start();
  std::uint64_t enqueued = 0;
  auto feed = [&](ChipId chip, std::uint64_t seq) {
    if (fleet.ingest(
              make_reading(chip, seq, synthetic_reading(spec, chip, seq)))
            .accepted)
      ++enqueued;
  };
  feed(0, 1);  // the poison reading wedges shard 0
  for (std::uint64_t t = 1; t <= 60; ++t) {
    feed(2, t);
    feed(1, t);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fleet.stats().stall_failovers == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The shard must keep serving its other chip after the failover.
  for (std::uint64_t t = 61; t <= 120; ++t) {
    feed(2, t);
    feed(1, t);
  }
  fleet.stop();

  const FleetStats stats = fleet.stats();
  h.require(kName, "failover", stats.stall_failovers >= 1);
  h.require(kName, "culprit_suspended",
            fleet.chip_mode(0) == ChipMode::kSuspended);
  h.require(kName, "admitted_all_decided", stats.processed == enqueued);

  // Both survivors got every reading, in order, across the failover — so
  // their decisions are bit-identical to standalone monitors.
  const auto states = fleet.persisted_states();
  const auto events = fleet.drain_alarms();
  const auto by_chip = transitions_by_chip(events);
  bool survivors_match = true;
  for (ChipId chip = 1; chip <= 2; ++chip) {
    const Replay want =
        replay_reference(spec, model, chip, iota_seqs(1, 120));
    if (!counters_match(states[chip].monitor, want.counters))
      survivors_match = false;
    const auto it = by_chip.find(chip);
    const std::vector<std::uint64_t> got =
        it == by_chip.end() ? std::vector<std::uint64_t>{} : it->second;
    if (got != want.transitions) survivors_match = false;
  }
  h.require(kName, "survivors_match", survivors_match);
  h.check(kName, "alarm_loss", alarm_loss(fleet, events) == 0,
          static_cast<double>(alarm_loss(fleet, events)));
}

// ---------------------------------------------------------------------------
// Scenario: checkpoint kill + restore
//
// The fleet is killed mid-run (destroyed, taking all in-memory state with
// it) right after a checkpoint. A fresh fleet restores the checkpoint and
// serves the second half of every stream. The interrupted run must be
// bit-identical to an uninterrupted control fleet — counters and the full
// alarm-transition history — proving a restart loses no alarm episode. A
// corrupted copy of the checkpoint must be rejected without touching the
// fleet.

void scenario_checkpoint_kill(Harness& h, const std::string& ckpt_path) {
  const std::string kName = "checkpoint_kill";
  SyntheticFleetSpec spec;
  constexpr std::size_t kChips = 3;
  constexpr std::uint64_t kSamples = 1200;
  constexpr std::uint64_t kKillAt = 600;

  FleetConfig fc;
  fc.shards = 2;
  auto model = make_synthetic_model(spec);
  auto build = [&]() {
    auto fleet = std::make_unique<MonitorFleet>(fc);
    // Chip 0 is fault-tolerant (detector + degraded bank state rides the
    // checkpoint too); the rest are plain monitors.
    fleet->add_chip(make_synthetic_monitor(spec, model, true), model);
    for (std::size_t c = 1; c < kChips; ++c)
      fleet->add_chip(make_synthetic_monitor(spec, model, false), model);
    return fleet;
  };
  auto advance = [&](MonitorFleet& fleet, std::uint64_t first,
                     std::uint64_t last) {
    for (std::uint64_t t = first; t <= last; ++t) {
      for (ChipId chip = 0; chip < kChips; ++chip)
        fleet.ingest(
            make_reading(chip, t, synthetic_reading(spec, chip, t)));
      if (t % 50 == 0) fleet.pump();
    }
    fleet.pump();
  };

  // Interrupted run: first half, checkpoint, kill, restore, second half.
  std::vector<AlarmEvent> events;
  auto fleet = build();
  advance(*fleet, 1, kKillAt);
  const auto first_half = fleet->drain_alarms();
  events.insert(events.end(), first_half.begin(), first_half.end());
  Status saved = save_fleet_checkpoint(*fleet, ckpt_path);
  h.require(kName, "checkpoint_saved", saved.ok());
  fleet.reset();  // the "kill": all in-memory state is gone

  fleet = build();
  // A torn/corrupted file must be rejected before any chip is touched.
  {
    std::ifstream in(ckpt_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x40;
    const std::string corrupt_path = ckpt_path + ".corrupt";
    std::ofstream out(corrupt_path, std::ios::binary);
    out << bytes;
    out.close();
    const Status rejected = load_fleet_checkpoint(*fleet, corrupt_path);
    h.require(kName, "corruption_rejected",
              rejected.code() == ErrorCode::kCorruption &&
                  fleet->chip_stats(0).samples == 0);
    std::remove(corrupt_path.c_str());
  }
  const Status loaded = load_fleet_checkpoint(*fleet, ckpt_path);
  h.require(kName, "checkpoint_loaded", loaded.ok());
  advance(*fleet, kKillAt + 1, kSamples);
  const auto second_half = fleet->drain_alarms();
  events.insert(events.end(), second_half.begin(), second_half.end());

  // Control: the same streams with no kill.
  auto control = build();
  advance(*control, 1, kSamples);
  const auto control_events = control->drain_alarms();

  const auto got_states = fleet->persisted_states();
  const auto want_states = control->persisted_states();
  bool resume_match = true;
  for (ChipId chip = 0; chip < kChips; ++chip) {
    const auto& a = got_states[chip];
    const auto& b = want_states[chip];
    if (!counters_match(a.monitor, b.monitor) ||
        a.last_sequence != b.last_sequence || a.accepted != b.accepted ||
        a.mode != b.mode)
      resume_match = false;
  }
  h.require(kName, "resume_match", resume_match);
  auto got_transitions = transitions_by_chip(events);
  auto want_transitions = transitions_by_chip(control_events);
  h.require(kName, "alarm_history_match",
            got_transitions == want_transitions);
  h.check(kName, "alarm_loss", alarm_loss(*fleet, events) == 0,
          static_cast<double>(alarm_loss(*fleet, events)));
  std::remove(ckpt_path.c_str());
}

// ---------------------------------------------------------------------------
// Throughput

struct ThroughputRow {
  std::size_t shards = 0;
  double wall_ms = 0.0;
  double readings_per_sec = 0.0;
  double p99_alarm_ms = 0.0;
  /// Interpolated quantiles from the serve.alarm_latency_ms histogram —
  /// the exposition-path numbers, reported alongside the exact-sort p99.
  double hist_p50_ms = 0.0;
  double hist_p99_ms = 0.0;
  std::uint64_t shed = 0;
};

ThroughputRow run_throughput(const SyntheticFleetSpec& spec,
                             std::size_t shards, std::size_t chips,
                             std::uint64_t samples, Harness& h) {
  FleetConfig fc;
  fc.shards = shards;
  fc.queue_capacity = 16384;
  fc.max_batch = 256;
  fc.producer_ring_capacity = 16384;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (std::size_t c = 0; c < chips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);

  // The whole synthetic feed runs on this one thread, so a single producer
  // lane gives it the mutex-free SPSC fast path into every shard. The chaos
  // scenarios keep plain ingest(), so its mutex-serialized lane stays
  // exercised.
  const ProducerId producer = fleet.register_producer();
  // Scope the alarm-latency histogram to this run so the reported
  // quantiles describe one (shards, rep) configuration, not the whole
  // sweep so far.
  metrics::Histogram& alarm_hist = metrics::histogram(
      "serve.alarm_latency_ms", metrics::default_time_buckets_ms());
  alarm_hist.reset();
  fleet.start();
  Timer timer;
  std::uint64_t enqueued = 0;
  for (std::uint64_t t = 1; t <= samples; ++t)
    for (ChipId chip = 0; chip < chips; ++chip)
      if (fleet.ingest(producer,
                       make_reading(chip, t, synthetic_reading(spec, chip, t)))
              .accepted)
        ++enqueued;
  fleet.stop();
  const double wall_ms = timer.millis();

  const FleetStats stats = fleet.stats();
  // Zero-loss invariant: overload may shed at admission, but everything
  // admitted is decided.
  if (stats.processed != enqueued) {
    h.ok = false;
    std::fprintf(stderr,
                 "FAIL: throughput@%zu lost readings (processed %llu of "
                 "%llu admitted)\n",
                 shards, static_cast<unsigned long long>(stats.processed),
                 static_cast<unsigned long long>(enqueued));
  }

  std::vector<double> latencies;
  for (const AlarmEvent& e : fleet.drain_alarms())
    latencies.push_back(e.latency_ms);
  double p99 = 0.0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(latencies.size()))) - 1;
    p99 = latencies[std::min(idx, latencies.size() - 1)];
  }

  ThroughputRow row;
  row.shards = shards;
  row.wall_ms = wall_ms;
  row.readings_per_sec =
      wall_ms > 0.0 ? static_cast<double>(stats.processed) / wall_ms * 1e3
                    : 0.0;
  row.p99_alarm_ms = p99;
  const metrics::Histogram::Snapshot hist = alarm_hist.snapshot();
  row.hist_p50_ms = metrics::histogram_quantile(hist, 0.50);
  row.hist_p99_ms = metrics::histogram_quantile(hist, 0.99);
  row.shed = stats.shed;
  return row;
}

std::vector<std::size_t> parse_list(const std::string& spec) {
  std::vector<std::size_t> list;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    const unsigned long v = std::stoul(spec.substr(pos, next - pos));
    if (v >= 1) list.push_back(static_cast<std::size_t>(v));
    pos = next + 1;
  }
  return list;
}

bool scenario_selected(const std::string& inject, const std::string& name) {
  if (inject == "none") return false;
  if (inject == "all") return true;
  std::size_t pos = 0;
  while (pos < inject.size()) {
    std::size_t next = inject.find(',', pos);
    if (next == std::string::npos) next = inject.size();
    if (inject.substr(pos, next - pos) == name) return true;
    pos = next + 1;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(
      "serving_suite — throughput + chaos harness for the multi-chip "
      "monitoring service: readings/sec and p99 alarm latency per shard "
      "count, then fault-injection scenarios (NaN storm, burst overload, "
      "stuck shard, checkpoint kill+restore) each proving zero fleet-wide "
      "alarm loss by replaying the accepted streams through reference "
      "monitors");
  args.add_flag("threads-list", "1,2,4",
                "comma-separated shard/worker counts for the throughput runs");
  args.add_flag("chips", "32", "chips per throughput fleet");
  args.add_flag("samples", "3000", "readings per chip per throughput run");
  args.add_flag("inject", "all",
                "chaos scenarios: all, none, or a comma list of nan_storm,"
                "burst_overload,stuck_shard,checkpoint_kill");
  args.add_flag("ckpt", "vmap_serving.ckpt",
                "scratch path for the checkpoint_kill scenario");
  args.add_flag("report", "",
                "write a machine-readable run report (JSON) to this path: "
                "scenario outcomes (gated byte-exactly), wall times and p99 "
                "alarm latencies (calibration-normalized)");
  try {
    if (!args.parse(argc, argv)) return 0;
    set_log_level(LogLevel::kWarn);

    Harness h;
    const std::string inject = args.get("inject");

    // --- throughput -----------------------------------------------------
    SyntheticFleetSpec spec;
    const auto chips = static_cast<std::size_t>(args.get_int("chips"));
    const auto samples = static_cast<std::uint64_t>(args.get_int("samples"));
    std::vector<ThroughputRow> rows;
    for (std::size_t shards : parse_list(args.get("threads-list"))) {
      // Best of three: the wall times feed the perf gate, and a single
      // 100-ms threaded run is scheduler-noisy at gate tolerance.
      ThroughputRow row;
      for (int rep = 0; rep < 3; ++rep) {
        const ThroughputRow r =
            run_throughput(spec, shards, chips, samples, h);
        if (rep == 0 || r.wall_ms < row.wall_ms) row = r;
      }
      rows.push_back(row);
      std::fprintf(stderr,
                   "[serve] shards=%zu %.0f readings/s, p99 alarm %.2f ms, "
                   "shed %llu\n",
                   row.shards, row.readings_per_sec, row.p99_alarm_ms,
                   static_cast<unsigned long long>(row.shed));
    }

    // --- chaos ----------------------------------------------------------
    std::size_t scenarios = 0;
    if (scenario_selected(inject, "nan_storm")) {
      ++scenarios;
      scenario_nan_storm(h);
    }
    if (scenario_selected(inject, "burst_overload")) {
      ++scenarios;
      scenario_burst_overload(h);
    }
    if (scenario_selected(inject, "stuck_shard")) {
      ++scenarios;
      scenario_stuck_shard(h);
    }
    if (scenario_selected(inject, "checkpoint_kill")) {
      ++scenarios;
      scenario_checkpoint_kill(h, args.get("ckpt"));
    }

    // --- report ---------------------------------------------------------
    TablePrinter tp({"shards", "wall(ms)", "readings/s", "p99 alarm(ms)",
                     "shed"});
    for (const auto& r : rows)
      tp.add_row({TablePrinter::fmt(r.shards), TablePrinter::fmt(r.wall_ms, 1),
                  TablePrinter::fmt(r.readings_per_sec, 0),
                  TablePrinter::fmt(r.p99_alarm_ms, 2),
                  TablePrinter::fmt(r.shed)});
    std::printf("== serving throughput (%zu chips x %llu readings) ==\n",
                chips, static_cast<unsigned long long>(samples));
    tp.print(std::cout);
    if (scenarios > 0) {
      std::printf("\n== chaos scenarios (%s) ==\n",
                  h.ok ? "all invariants held" : "FAILED");
      h.table.print(std::cout);
    }

    h.report.scalar("chaos_scenarios", static_cast<double>(scenarios));
    h.report.scalar("chaos_pass", h.ok ? 1.0 : 0.0);
    for (const auto& r : rows) {
      h.report.timing("serve@" + std::to_string(r.shards), r.wall_ms);
      h.report.timing("alarm_p99@" + std::to_string(r.shards),
                      r.p99_alarm_ms);
      h.report.timing("alarm_hist_p50@" + std::to_string(r.shards),
                      r.hist_p50_ms);
      h.report.timing("alarm_hist_p99@" + std::to_string(r.shards),
                      r.hist_p99_ms);
    }
    benchutil::write_report(args, nullptr, h.report);

    return h.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
