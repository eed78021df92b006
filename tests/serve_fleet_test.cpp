// MonitorFleet integration tests: decisions bit-identical to standalone
// OnlineMonitors (the fused predict-and-min path, the per-sample path, two
// models of different sensor counts taking turns leading the batch, and
// fault-tolerant monitors losing a sensor mid-stream), overload shed
// accounting, clean-shutdown drain, a stop() that does not wait out the
// watchdog's period, watchdog stall failover in threaded mode with
// plain-ingest and producer-lane backlogs, and workers that sleep between
// bursts without missing a wake-up.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/online_monitor.hpp"
#include "serve/fleet.hpp"
#include "serve/synthetic.hpp"

namespace vmap::serve {
namespace {

Reading make_reading(ChipId chip, std::uint64_t seq, linalg::Vector values) {
  Reading r;
  r.chip = chip;
  r.sequence = seq;
  r.values = std::move(values);
  return r;
}

/// Reference truth: the same streams through standalone monitors, one per
/// chip, with the alarm-transition sequences recorded.
struct ReferenceRun {
  std::vector<core::OnlineMonitor::Counters> counters;
  std::map<ChipId, std::vector<std::uint64_t>> transitions;
};

ReferenceRun run_reference(const SyntheticFleetSpec& spec,
                           std::size_t num_chips, std::uint64_t samples) {
  auto model = make_synthetic_model(spec);
  ReferenceRun ref;
  for (ChipId chip = 0; chip < num_chips; ++chip) {
    core::OnlineMonitor monitor =
        make_synthetic_monitor(spec, model, /*fault_tolerant=*/false);
    bool prev = false;
    for (std::uint64_t t = 1; t <= samples; ++t) {
      const auto d = monitor.observe(synthetic_reading(spec, chip, t));
      if (d.alarm != prev) ref.transitions[chip].push_back(t);
      prev = d.alarm;
    }
    ref.counters.push_back(monitor.counters());
  }
  return ref;
}

void expect_matches_reference(MonitorFleet& fleet, const ReferenceRun& ref,
                              std::size_t num_chips) {
  const auto states = fleet.persisted_states();
  for (ChipId chip = 0; chip < num_chips; ++chip) {
    const auto& got = states[chip].monitor;
    const auto& want = ref.counters[chip];
    EXPECT_EQ(got.samples, want.samples) << "chip " << chip;
    EXPECT_EQ(got.alarm, want.alarm) << "chip " << chip;
    EXPECT_EQ(got.crossing_streak, want.crossing_streak) << "chip " << chip;
    EXPECT_EQ(got.safe_streak, want.safe_streak) << "chip " << chip;
    EXPECT_EQ(got.alarm_samples, want.alarm_samples) << "chip " << chip;
    EXPECT_EQ(got.alarm_episodes, want.alarm_episodes) << "chip " << chip;
  }
  std::map<ChipId, std::vector<std::uint64_t>> transitions;
  for (const AlarmEvent& e : fleet.drain_alarms())
    transitions[e.chip].push_back(e.sequence);
  for (ChipId chip = 0; chip < num_chips; ++chip) {
    auto it = ref.transitions.find(chip);
    const std::vector<std::uint64_t> want =
        it == ref.transitions.end() ? std::vector<std::uint64_t>{}
                                    : it->second;
    EXPECT_EQ(transitions[chip], want) << "chip " << chip;
  }
}

// ---- Bit-identity, pump mode --------------------------------------------

TEST(MonitorFleet, PumpModeDecisionsAreBitIdenticalToStandaloneMonitor) {
  SyntheticFleetSpec spec;
  constexpr std::size_t kChips = 5;
  constexpr std::uint64_t kSamples = 400;

  // Shared models: same-model healthy chips are decided by the fused
  // predict-and-min kernel. Bit-identity with the standalone monitor is
  // exactly the claim worst_from_sensor_readings_batch documents.
  FleetConfig fc;
  fc.shards = 3;
  fc.max_batch = 16;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);

  for (std::uint64_t t = 1; t <= kSamples; ++t) {
    for (ChipId chip = 0; chip < kChips; ++chip) {
      const auto result = fleet.ingest(
          make_reading(chip, t, synthetic_reading(spec, chip, t)));
      ASSERT_TRUE(result.accepted);
    }
    if (t % 50 == 0) fleet.pump();
  }
  fleet.pump();

  expect_matches_reference(fleet, run_reference(spec, kChips, kSamples),
                           kChips);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.enqueued, kChips * kSamples);
  EXPECT_EQ(stats.processed, kChips * kSamples);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(MonitorFleet, UnbatchedPathMatchesToo) {
  SyntheticFleetSpec spec;
  constexpr std::size_t kChips = 3;
  constexpr std::uint64_t kSamples = 200;
  MonitorFleet fleet;
  auto model = make_synthetic_model(spec);
  // No shared model: every reading takes the monitor's per-sample path.
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), nullptr);
  for (std::uint64_t t = 1; t <= kSamples; ++t)
    for (ChipId chip = 0; chip < kChips; ++chip)
      fleet.ingest(make_reading(chip, t, synthetic_reading(spec, chip, t)));
  fleet.pump();
  expect_matches_reference(fleet, run_reference(spec, kChips, kSamples),
                           kChips);
}

TEST(MonitorFleet, ModelsOfDifferentSensorCountsTakeTurnsLeadingTheBatch) {
  // Two shared models with different sensor counts, and batches whose
  // leading model flips every time: the worker's reused reading matrices
  // must stay sized to the batch, however often the order flips.
  SyntheticFleetSpec spec_a;
  spec_a.sensors = 6;
  SyntheticFleetSpec spec_b;
  spec_b.sensors = 9;
  spec_b.seed = 7;
  const SyntheticFleetSpec* specs[2] = {&spec_a, &spec_b};
  constexpr std::uint64_t kSamples = 300;

  FleetConfig fc;
  fc.shards = 1;
  fc.max_batch = 2;
  fc.queue_capacity = 2 * kSamples;
  MonitorFleet fleet(fc);
  for (ChipId chip = 0; chip < 2; ++chip) {
    auto model = make_synthetic_model(*specs[chip]);
    fleet.add_chip(make_synthetic_monitor(*specs[chip], model, false), model);
  }
  // Batch t holds sample t of both chips, chip t % 2 first.
  for (std::uint64_t t = 1; t <= kSamples; ++t)
    for (ChipId k = 0; k < 2; ++k) {
      const ChipId chip = static_cast<ChipId>((t + k) % 2);
      ASSERT_TRUE(fleet
                      .ingest(make_reading(
                          chip, t, synthetic_reading(*specs[chip], chip, t)))
                      .accepted);
    }
  EXPECT_EQ(fleet.pump(), 2 * kSamples);

  // Chip c's standalone replay is chip c of a reference run on its spec.
  ReferenceRun ref;
  for (ChipId chip = 0; chip < 2; ++chip) {
    ReferenceRun own = run_reference(*specs[chip], chip + 1, kSamples);
    ref.counters.push_back(own.counters[chip]);
    ref.transitions[chip] = own.transitions[chip];
    EXPECT_FALSE(ref.transitions[chip].empty()) << "chip " << chip;
  }
  expect_matches_reference(fleet, ref, 2);
}

// ---- Fault-tolerant fleet ------------------------------------------------

/// Chip 1's sensor 2 dies to a 0 V rail at kDeadRailAt (finite, so its
/// readings still enter the fused kernel until the detector flags the
/// sensor), and chip 2's sensor 4 reads NaN from kNanAt (non-finite, so
/// those readings take the per-sample path from the start).
constexpr std::uint64_t kDeadRailAt = 120;
constexpr std::uint64_t kNanAt = 180;

linalg::Vector faulty_reading(const SyntheticFleetSpec& spec, ChipId chip,
                              std::uint64_t t) {
  linalg::Vector r = synthetic_reading(spec, chip, t);
  if (chip == 1 && t >= kDeadRailAt) r[2] = 0.0;
  if (chip == 2 && t >= kNanAt) r[4] = std::numeric_limits<double>::quiet_NaN();
  return r;
}

/// Standalone fault-tolerant monitors fed the same readings: their alarm
/// events (latency aside) and the ChipStats a fleet must report for them.
struct FaultTolerantReference {
  std::vector<std::vector<AlarmEvent>> events;
  std::vector<ChipStats> stats;
};

FaultTolerantReference run_fault_tolerant_reference(
    const SyntheticFleetSpec& spec,
    const std::shared_ptr<const core::PlacementModel>& model,
    std::size_t num_chips, std::uint64_t samples) {
  FaultTolerantReference ref;
  for (ChipId chip = 0; chip < num_chips; ++chip) {
    core::OnlineMonitor monitor = make_synthetic_monitor(spec, model, true);
    std::vector<AlarmEvent> events;
    bool prev = false;
    for (std::uint64_t t = 1; t <= samples; ++t) {
      const auto d = monitor.observe(faulty_reading(spec, chip, t));
      EXPECT_FALSE(d.rejected) << "chip " << chip << " t " << t;
      if (d.alarm != prev) {
        AlarmEvent e;
        e.chip = chip;
        e.sequence = t;
        e.asserted = d.alarm;
        e.worst_voltage = d.worst_voltage;
        e.worst_row = d.worst_row;
        events.push_back(e);
      }
      prev = d.alarm;
    }
    ref.events.push_back(std::move(events));
    const core::OnlineMonitor::Counters c = monitor.counters();
    ChipStats want;
    want.chip = chip;
    want.mode = c.degraded ? ChipMode::kDegraded : ChipMode::kHealthy;
    want.accepted = samples;
    want.last_sequence = samples;
    want.samples = c.samples;
    want.alarm_samples = c.alarm_samples;
    want.alarm_episodes = c.alarm_episodes;
    want.degraded_samples = c.degraded_samples;
    want.degraded_episodes = c.degraded_episodes;
    want.alarm_active = c.alarm;
    ref.stats.push_back(want);
  }
  return ref;
}

void expect_same_stats(const ChipStats& got, const ChipStats& want) {
  const std::string tag = "chip " + std::to_string(want.chip);
  EXPECT_EQ(got.chip, want.chip) << tag;
  EXPECT_EQ(got.mode, want.mode) << tag;
  EXPECT_EQ(got.accepted, want.accepted) << tag;
  EXPECT_EQ(got.rejected_malformed, want.rejected_malformed) << tag;
  EXPECT_EQ(got.rejected_nonfinite, want.rejected_nonfinite) << tag;
  EXPECT_EQ(got.rejected_stale, want.rejected_stale) << tag;
  EXPECT_EQ(got.dropped_quarantined, want.dropped_quarantined) << tag;
  EXPECT_EQ(got.dropped_suspended, want.dropped_suspended) << tag;
  EXPECT_EQ(got.shed, want.shed) << tag;
  EXPECT_EQ(got.quarantine_episodes, want.quarantine_episodes) << tag;
  EXPECT_EQ(got.last_sequence, want.last_sequence) << tag;
  EXPECT_EQ(got.samples, want.samples) << tag;
  EXPECT_EQ(got.alarm_samples, want.alarm_samples) << tag;
  EXPECT_EQ(got.alarm_episodes, want.alarm_episodes) << tag;
  EXPECT_EQ(got.degraded_samples, want.degraded_samples) << tag;
  EXPECT_EQ(got.degraded_episodes, want.degraded_episodes) << tag;
  EXPECT_EQ(got.alarm_active, want.alarm_active) << tag;
}

/// Feeds the faulty streams through a fault-tolerant fleet (pump mode, or
/// threaded with one producer lane) and checks every chip's alarm events
/// and ChipStats against the standalone monitors.
void check_fault_tolerant_fleet(bool threaded) {
  SyntheticFleetSpec spec;
  constexpr std::size_t kChips = 4;
  constexpr std::uint64_t kSamples = 300;
  FleetConfig fc;
  fc.shards = 2;
  fc.max_batch = 16;
  fc.queue_capacity = 4096;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, true), model);

  if (threaded) {
    const ProducerId producer = fleet.register_producer();
    fleet.start();
    for (std::uint64_t t = 1; t <= kSamples; ++t)
      for (ChipId chip = 0; chip < kChips; ++chip)
        ASSERT_TRUE(fleet
                        .ingest(producer,
                                make_reading(chip, t,
                                             faulty_reading(spec, chip, t)))
                        .accepted);
    fleet.stop();
  } else {
    for (std::uint64_t t = 1; t <= kSamples; ++t) {
      for (ChipId chip = 0; chip < kChips; ++chip)
        ASSERT_TRUE(
            fleet.ingest(make_reading(chip, t, faulty_reading(spec, chip, t)))
                .accepted);
      if (t % 50 == 0) fleet.pump();
    }
    fleet.pump();
  }

  const FaultTolerantReference ref =
      run_fault_tolerant_reference(spec, model, kChips, kSamples);
  std::vector<std::vector<AlarmEvent>> got(kChips);
  for (const AlarmEvent& e : fleet.drain_alarms()) got[e.chip].push_back(e);
  for (ChipId chip = 0; chip < kChips; ++chip) {
    ASSERT_EQ(got[chip].size(), ref.events[chip].size()) << "chip " << chip;
    for (std::size_t i = 0; i < got[chip].size(); ++i) {
      const AlarmEvent& g = got[chip][i];
      const AlarmEvent& w = ref.events[chip][i];
      EXPECT_EQ(g.sequence, w.sequence) << "chip " << chip << " event " << i;
      EXPECT_EQ(g.asserted, w.asserted) << "chip " << chip << " event " << i;
      EXPECT_EQ(std::memcmp(&g.worst_voltage, &w.worst_voltage,
                            sizeof(double)),
                0)
          << "chip " << chip << " event " << i;
      EXPECT_EQ(g.worst_row, w.worst_row) << "chip " << chip << " event " << i;
    }
    expect_same_stats(fleet.chip_stats(chip), ref.stats[chip]);
  }
  // The faults did bite: the dead rail and the NaN feed each put their
  // chip into degraded operation, and the fleet still raised alarms.
  EXPECT_GT(ref.stats[1].degraded_samples, 0u);
  EXPECT_GT(ref.stats[2].degraded_samples, 0u);
  EXPECT_EQ(ref.stats[0].degraded_samples, 0u);
  EXPECT_GT(fleet.stats().alarm_events, 0u);
}

TEST(MonitorFleet, FaultTolerantFleetMatchesStandaloneMonitorsInPumpMode) {
  check_fault_tolerant_fleet(/*threaded=*/false);
}

TEST(MonitorFleet, FaultTolerantFleetMatchesStandaloneMonitorsThreaded) {
  check_fault_tolerant_fleet(/*threaded=*/true);
}

// ---- Admission / overload -----------------------------------------------

TEST(MonitorFleet, UnknownChipIsRefused) {
  MonitorFleet fleet;
  const auto result = fleet.ingest(make_reading(7, 1, linalg::Vector(3)));
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kUnknownChip);
}

TEST(MonitorFleet, OverloadShedsNewestAndCountsEveryDrop) {
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 1;
  fc.queue_capacity = 8;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  fleet.add_chip(make_synthetic_monitor(spec, model, false), model);

  std::size_t accepted = 0, shed = 0;
  for (std::uint64_t t = 1; t <= 50; ++t) {
    const auto result =
        fleet.ingest(make_reading(0, t, synthetic_reading(spec, 0, t)));
    if (result.accepted) {
      ++accepted;
    } else {
      EXPECT_EQ(result.reason, RejectReason::kShed);
      ++shed;
    }
  }
  EXPECT_EQ(accepted, fc.queue_capacity);  // reject-newest: first 8 stay
  EXPECT_EQ(shed, 50u - fc.queue_capacity);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(fleet.chip_stats(0).shed, shed);

  // Everything admitted is decided — overload sheds, it never loses.
  fleet.pump();
  EXPECT_EQ(fleet.stats().processed, accepted);
  EXPECT_EQ(fleet.chip_stats(0).samples, accepted);
}

// ---- Threaded mode ------------------------------------------------------

TEST(MonitorFleet, ThreadedModeDrainsEverythingOnStop) {
  SyntheticFleetSpec spec;
  constexpr std::size_t kChips = 4;
  constexpr std::uint64_t kSamples = 300;
  FleetConfig fc;
  fc.shards = 2;
  fc.queue_capacity = 4096;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);

  fleet.start();
  std::uint64_t enqueued = 0;
  for (std::uint64_t t = 1; t <= kSamples; ++t)
    for (ChipId chip = 0; chip < kChips; ++chip)
      if (fleet.ingest(make_reading(chip, t, synthetic_reading(spec, chip, t)))
              .accepted)
        ++enqueued;
  fleet.stop();

  // stop() drains: every admitted reading was decided, none lost. Per-chip
  // order is preserved (one worker per shard), so the decisions also match
  // the standalone reference exactly.
  EXPECT_EQ(fleet.stats().processed, enqueued);
  if (enqueued == kChips * kSamples)
    expect_matches_reference(fleet, run_reference(spec, kChips, kSamples),
                             kChips);
}

TEST(MonitorFleet, StopDoesNotWaitOutTheWatchdogPeriod) {
  // The watchdog waits out its period on something stop() signals, so a
  // long period costs stop() nothing; one that slept it out would hold
  // stop() for about 5 s here.
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 2;
  fc.watchdog_period_ms = 5000.0;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  fleet.start();
  ASSERT_TRUE(fleet.ingest(make_reading(0, 1, synthetic_reading(spec, 0, 1)))
                  .accepted);
  const auto begin = std::chrono::steady_clock::now();
  fleet.stop();
  const double stop_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  EXPECT_LT(stop_ms, 1000.0);
  EXPECT_EQ(fleet.stats().processed, 1u);
}

TEST(MonitorFleet, WatchdogFailsOverAStalledShardAndSuspendsTheCulprit) {
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 2;
  fc.stall_timeout_ms = 80.0;
  fc.watchdog_period_ms = 10.0;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  // Chips 0 and 2 share shard 0 (chip % shards); chip 1 is on shard 1.
  for (int c = 0; c < 3; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);

  // Chip 0 wedges its worker for far longer than the stall timeout.
  fleet.set_chaos_delay_ms(0, 1200.0);
  fleet.start();
  std::uint64_t enqueued = 0;
  auto feed = [&](ChipId chip, std::uint64_t seq) {
    if (fleet.ingest(
              make_reading(chip, seq, synthetic_reading(spec, chip, seq)))
            .accepted)
      ++enqueued;
  };
  feed(0, 1);  // the poison reading
  for (std::uint64_t t = 1; t <= 40; ++t) {
    feed(2, t);  // same shard, behind the stall
    feed(1, t);  // other shard, must keep flowing throughout
  }

  // Wait for the watchdog to declare the stall and fail the shard over.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.stats().stall_failovers == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(fleet.stats().stall_failovers, 1u);

  // The culprit was poison-pilled; its neighbors keep being served by the
  // replacement worker.
  EXPECT_EQ(fleet.chip_mode(0), ChipMode::kSuspended);
  for (std::uint64_t t = 41; t <= 60; ++t) feed(2, t);
  fleet.stop();

  // Zero loss across the failover: every admitted reading was decided
  // (the suspended chip's as counted drops, the rest as samples).
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.processed, enqueued);
  const ChipStats survivor = fleet.chip_stats(2);
  EXPECT_EQ(survivor.samples, survivor.accepted);
  EXPECT_GT(survivor.samples, 0u);
  // The unrelated shard never noticed: all 40 of chip 1's readings decided.
  EXPECT_EQ(fleet.chip_stats(1).samples, 40u);
}

TEST(MonitorFleet, WatchdogFailsOverAShardStalledBehindLaneTraffic) {
  // The stall above, with every reading on a producer lane: while the
  // culprit wedges shard 0's worker, the shard's whole backlog is ring
  // traffic, which the watchdog must count toward its stall signal; the
  // rings then hand over to the replacement worker with the shard.
  SyntheticFleetSpec spec;
  constexpr std::size_t kChips = 4;  // chips 0 and 2 on shard 0, 1 and 3 on 1
  constexpr std::uint64_t kSamples = 300;
  FleetConfig fc;
  fc.shards = 2;
  fc.stall_timeout_ms = 80.0;
  fc.watchdog_period_ms = 10.0;
  fc.producer_ring_capacity = 4096;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId producer = fleet.register_producer();

  fleet.set_chaos_delay_ms(0, 1200.0);
  fleet.start();
  std::uint64_t enqueued = 0;
  auto feed = [&](ChipId chip, std::uint64_t seq) {
    if (fleet
            .ingest(producer,
                    make_reading(chip, seq, synthetic_reading(spec, chip, seq)))
            .accepted)
      ++enqueued;
  };
  feed(0, 1);  // the poison reading
  // Let the worker take the poison reading alone and wedge on it, so what
  // follows queues up in the rings behind the stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto feed_survivors = [&](std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t t = from; t <= to; ++t)
      for (ChipId chip = 1; chip < kChips; ++chip) feed(chip, t);
  };
  feed_survivors(1, kSamples / 2);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.stats().stall_failovers == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(fleet.stats().stall_failovers, 1u);
  EXPECT_EQ(fleet.chip_mode(0), ChipMode::kSuspended);

  feed_survivors(kSamples / 2 + 1, kSamples);
  fleet.stop();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.enqueued, enqueued);
  EXPECT_EQ(stats.processed, enqueued);

  // Every survivor decided its whole stream in order, across the failover:
  // the same alarm transitions as a standalone monitor replay.
  const ReferenceRun ref = run_reference(spec, kChips, kSamples);
  std::map<ChipId, std::vector<std::uint64_t>> transitions;
  for (const AlarmEvent& e : fleet.drain_alarms())
    transitions[e.chip].push_back(e.sequence);
  std::size_t replayed = 0;
  for (ChipId chip = 1; chip < kChips; ++chip) {
    EXPECT_EQ(fleet.chip_stats(chip).accepted, kSamples) << "chip " << chip;
    const auto it = ref.transitions.find(chip);
    const std::vector<std::uint64_t> want =
        it == ref.transitions.end() ? std::vector<std::uint64_t>{}
                                    : it->second;
    EXPECT_EQ(transitions[chip], want) << "chip " << chip;
    replayed += want.size();
  }
  EXPECT_GT(replayed, 0u);  // the streams do cross the alarm threshold
}

TEST(MonitorFleet, WokenStalledWorkerNeverTouchesTheReplacementsBatch) {
  // Regression for the failover ownership race: the stalled worker used to
  // rely on the resettable inflight_stolen flag, so if it woke while the
  // replacement was mid-batch under continuous load it would claim the
  // replacement's items — indexing its stale precomputed vector out of
  // bounds and running the same chip's monitor from two threads. With
  // generation-based ownership the woken worker must exit untouched, so
  // the survivor chip's stream stays bit-identical to a standalone monitor
  // even though the staller wakes squarely inside the replacement's run.
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 1;  // both chips share the shard: the load rides behind the stall
  fc.stall_timeout_ms = 60.0;
  fc.watchdog_period_ms = 10.0;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (int c = 0; c < 2; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);

  constexpr std::uint64_t kSamples = 400;
  // Chip 0 wedges the original worker well past the failover; chip 1's
  // per-reading delay keeps the replacement mid-batch when the staller
  // finally wakes (~700ms in, with ~800ms of replacement work queued).
  fleet.set_chaos_delay_ms(0, 700.0);
  fleet.set_chaos_delay_ms(1, 2.0);
  fleet.start();
  std::uint64_t enqueued = 0;
  ASSERT_TRUE(
      fleet.ingest(make_reading(0, 1, synthetic_reading(spec, 0, 1)))
          .accepted);
  ++enqueued;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (std::uint64_t t = 1; t <= kSamples; ++t)
    if (fleet.ingest(make_reading(1, t, synthetic_reading(spec, 1, t)))
            .accepted)
      ++enqueued;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fleet.stats().processed < enqueued &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fleet.stop();

  EXPECT_GE(fleet.stats().stall_failovers, 1u);
  EXPECT_EQ(fleet.chip_mode(0), ChipMode::kSuspended);
  // Zero loss and zero double-processing across the wake-up.
  EXPECT_EQ(fleet.stats().processed, enqueued);

  // Chip 1's stream survived the failover in order and untouched by the
  // woken staller: counters and alarm transitions match the standalone
  // reference bit-exactly.
  const ReferenceRun ref = run_reference(spec, 2, kSamples);
  const auto states = fleet.persisted_states();
  const auto& got = states[1].monitor;
  const auto& want = ref.counters[1];
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.alarm, want.alarm);
  EXPECT_EQ(got.crossing_streak, want.crossing_streak);
  EXPECT_EQ(got.safe_streak, want.safe_streak);
  EXPECT_EQ(got.alarm_samples, want.alarm_samples);
  EXPECT_EQ(got.alarm_episodes, want.alarm_episodes);
  std::vector<std::uint64_t> transitions;
  for (const AlarmEvent& e : fleet.drain_alarms())
    if (e.chip == 1) transitions.push_back(e.sequence);
  const auto it = ref.transitions.find(1);
  const std::vector<std::uint64_t> want_transitions =
      it == ref.transitions.end() ? std::vector<std::uint64_t>{} : it->second;
  EXPECT_EQ(transitions, want_transitions);
}

TEST(MonitorFleet, LaneFailoverDecidesTheStolenRemainderBeforeTheLanes) {
  // The poison reading and the first survivor readings land in one batch,
  // and more survivor readings wait in the ring behind them. The failover
  // leaves the batch's un-decided remainder in the inflight slot; the
  // replacement must decide it before it reads the ring, or the survivor's
  // later readings would get ahead of it and the remainder would be
  // rejected as stale replays.
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 1;
  fc.max_batch = 8;  // a threaded worker takes at most 16 readings
  fc.stall_timeout_ms = 80.0;
  fc.watchdog_period_ms = 10.0;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (int c = 0; c < 2; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId producer = fleet.register_producer();
  fleet.set_chaos_delay_ms(0, 1000.0);

  constexpr std::uint64_t kQueued = 40;   // survivor readings before start
  constexpr std::uint64_t kSamples = 60;  // survivor readings in total
  std::uint64_t enqueued = 0;
  auto feed = [&](ChipId chip, std::uint64_t seq) {
    if (fleet
            .ingest(producer,
                    make_reading(chip, seq, synthetic_reading(spec, chip, seq)))
            .accepted)
      ++enqueued;
  };
  // Admitted before start(), so the first batch is the poison reading and
  // survivor readings 1..15, with 16..40 left in the ring.
  feed(0, 1);
  for (std::uint64_t t = 1; t <= kQueued; ++t) feed(1, t);
  fleet.start();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.stats().stall_failovers == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(fleet.stats().stall_failovers, 1u);
  EXPECT_EQ(fleet.chip_mode(0), ChipMode::kSuspended);
  for (std::uint64_t t = kQueued + 1; t <= kSamples; ++t) feed(1, t);
  fleet.stop();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.processed, enqueued);
  const ChipStats survivor = fleet.chip_stats(1);
  EXPECT_EQ(survivor.rejected_stale, 0u);
  EXPECT_EQ(survivor.accepted, kSamples);
  const ReferenceRun ref = run_reference(spec, 2, kSamples);
  const auto states = fleet.persisted_states();
  EXPECT_EQ(states[1].monitor.samples, ref.counters[1].samples);
  EXPECT_EQ(states[1].monitor.alarm_samples, ref.counters[1].alarm_samples);
  EXPECT_EQ(states[1].monitor.alarm_episodes,
            ref.counters[1].alarm_episodes);
  std::vector<std::uint64_t> transitions;
  for (const AlarmEvent& e : fleet.drain_alarms())
    if (e.chip == 1) transitions.push_back(e.sequence);
  const auto it = ref.transitions.find(1);
  EXPECT_EQ(transitions, it == ref.transitions.end()
                             ? std::vector<std::uint64_t>{}
                             : it->second);
}

TEST(MonitorFleet, SleepingWorkersWakeForEveryBurst) {
  // Lost wake-up stress. Each burst is one reading, waited on until it is
  // decided, then an idle gap. The gaps sweep 0-20 us in 0.25 us steps, so
  // pushes land at every point of a worker's poll, announce and sleep
  // path, and every 16th gap is 2 ms, long enough for both workers to fall
  // asleep in the kernel. Chips 0 and 1 (one per shard) feed a producer
  // lane, chips 2 and 3 plain ingest(). The watchdog is set far past the
  // per-burst deadline, so only a missed wake-up can leave a reading
  // undecided there, and no failover can rescue one.
  SyntheticFleetSpec spec;
  constexpr std::size_t kChips = 4;
  constexpr std::uint64_t kBursts = 4000;
  FleetConfig fc;
  fc.shards = 2;
  fc.stall_timeout_ms = 600000.0;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId producer = fleet.register_producer();
  fleet.start();

  using Clock = std::chrono::steady_clock;
  std::uint64_t admitted = 0;
  for (std::uint64_t burst = 0; burst < kBursts; ++burst) {
    const auto chip = static_cast<ChipId>(burst % kChips);
    const std::uint64_t seq = burst / kChips + 1;
    Reading r = make_reading(chip, seq, synthetic_reading(spec, chip, seq));
    const IngestResult result = chip < 2 ? fleet.ingest(producer, std::move(r))
                                         : fleet.ingest(std::move(r));
    ASSERT_TRUE(result.accepted) << "burst " << burst;
    ++admitted;
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    while (fleet.stats().processed < admitted && Clock::now() < deadline)
      std::this_thread::yield();
    ASSERT_EQ(fleet.stats().processed, admitted)
        << "burst " << burst << " sat undecided: a lost wake-up";
    if (burst % 16 == 15) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else {
      const auto until = Clock::now() + std::chrono::nanoseconds(
                                            250 * (burst % 80));
      while (Clock::now() < until) {
      }
    }
  }
  fleet.stop();

  EXPECT_EQ(fleet.stats().stall_failovers, 0u);
  EXPECT_EQ(fleet.stats().shed, 0u);
  expect_matches_reference(fleet, run_reference(spec, kChips, kBursts / kChips),
                           kChips);
}

}  // namespace
}  // namespace vmap::serve
