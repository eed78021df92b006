// Serving-layer unit tests: ChipDomain admission + quarantine state
// machine, checkpoint round-trips (bit-exact, corruption-rejecting), and a
// property test pinning the alarm debounce against a reference automaton.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/checkpoint.hpp"
#include "serve/chip_domain.hpp"
#include "serve/fleet.hpp"
#include "serve/synthetic.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace vmap::serve {
namespace {

Reading make_reading(ChipId chip, std::uint64_t seq, linalg::Vector values) {
  Reading r;
  r.chip = chip;
  r.sequence = seq;
  r.values = std::move(values);
  return r;
}

linalg::Vector level_reading(std::size_t sensors, double level) {
  return linalg::Vector(sensors, level);
}

ChipDomain make_domain(const SyntheticFleetSpec& spec,
                       const ChipDomain::Config& config,
                       bool fault_tolerant = false) {
  auto model = make_synthetic_model(spec);
  return ChipDomain(0, make_synthetic_monitor(spec, model, fault_tolerant),
                    model, config);
}

// ---- Admission ----------------------------------------------------------

TEST(ChipDomain, AcceptsCleanReadingsAndRejectsBadOnes) {
  SyntheticFleetSpec spec;
  ChipDomain::Config config;
  ChipDomain domain = make_domain(spec, config);

  auto ok = domain.process(
      make_reading(0, 1, level_reading(spec.sensors, spec.nominal_v)),
      nullptr);
  EXPECT_TRUE(ok.accepted);
  EXPECT_EQ(ok.reason, RejectReason::kNone);
  EXPECT_FALSE(ok.decision.alarm);

  // Wrong-size vector: rejected at the boundary, monitor never sees it
  // (an observe() call with this vector would be a contract violation).
  auto malformed =
      domain.process(make_reading(0, 2, level_reading(3, 0.9)), nullptr);
  EXPECT_FALSE(malformed.accepted);
  EXPECT_EQ(malformed.reason, RejectReason::kMalformed);

  // NaN into a plain (non-fault-tolerant) monitor: no safe interpretation.
  linalg::Vector poisoned = level_reading(spec.sensors, spec.nominal_v);
  poisoned[0] = std::numeric_limits<double>::quiet_NaN();
  auto nonfinite = domain.process(make_reading(0, 3, poisoned), nullptr);
  EXPECT_FALSE(nonfinite.accepted);
  EXPECT_EQ(nonfinite.reason, RejectReason::kNonFinite);

  // Stale sequence (replay of 1): rejected without touching the monitor.
  auto stale = domain.process(
      make_reading(0, 1, level_reading(spec.sensors, spec.nominal_v)),
      nullptr);
  EXPECT_FALSE(stale.accepted);
  EXPECT_EQ(stale.reason, RejectReason::kStale);

  const ChipStats stats = domain.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected_malformed, 1u);
  EXPECT_EQ(stats.rejected_nonfinite, 1u);
  EXPECT_EQ(stats.rejected_stale, 1u);
  EXPECT_EQ(stats.samples, 1u);  // the monitor decided exactly one sample
}

TEST(ChipDomain, FaultTolerantChipAbsorbsPartialNaN) {
  SyntheticFleetSpec spec;
  ChipDomain::Config config;
  ChipDomain domain = make_domain(spec, config, /*fault_tolerant=*/true);

  linalg::Vector poisoned = level_reading(spec.sensors, spec.nominal_v);
  poisoned[1] = std::numeric_limits<double>::quiet_NaN();
  auto out = domain.process(make_reading(0, 1, poisoned), nullptr);
  EXPECT_TRUE(out.accepted);
  EXPECT_TRUE(out.decision.degraded);
  EXPECT_EQ(domain.mode(), ChipMode::kDegraded);

  // All-NaN: even the fallback bank has nothing to work from.
  linalg::Vector all_nan(spec.sensors,
                         std::numeric_limits<double>::quiet_NaN());
  auto out2 = domain.process(make_reading(0, 2, all_nan), nullptr);
  EXPECT_FALSE(out2.accepted);
  EXPECT_EQ(out2.reason, RejectReason::kNonFinite);
}

// ---- Quarantine state machine -------------------------------------------

TEST(ChipDomain, QuarantineProbationAndSuspension) {
  SyntheticFleetSpec spec;
  ChipDomain::Config config;
  config.quarantine_after = 3;
  config.probation = 4;
  config.suspend_after = 2;
  ChipDomain domain = make_domain(spec, config);

  const linalg::Vector bad = level_reading(3, 0.9);  // wrong size
  const linalg::Vector good = level_reading(spec.sensors, spec.nominal_v);

  // quarantine_after consecutive rejects => quarantined.
  std::uint64_t seq = 1;
  for (std::size_t i = 0; i < config.quarantine_after; ++i)
    domain.process(make_reading(0, seq++, bad), nullptr);
  EXPECT_EQ(domain.mode(), ChipMode::kQuarantined);
  EXPECT_EQ(domain.stats().quarantine_episodes, 1u);

  // While quarantined, even clean readings are dropped (probation only).
  auto dropped = domain.process(make_reading(0, seq++, good), nullptr);
  EXPECT_FALSE(dropped.accepted);
  EXPECT_EQ(dropped.reason, RejectReason::kQuarantined);

  // Finish probation: the chip rejoins.
  for (std::size_t i = 1; i < config.probation; ++i)
    domain.process(make_reading(0, seq++, good), nullptr);
  EXPECT_EQ(domain.mode(), ChipMode::kHealthy);
  auto accepted = domain.process(make_reading(0, seq++, good), nullptr);
  EXPECT_TRUE(accepted.accepted);

  // Back into quarantine, then strikes: suspend_after bad readings while
  // quarantined seal the domain.
  for (std::size_t i = 0; i < config.quarantine_after; ++i)
    domain.process(make_reading(0, seq++, bad), nullptr);
  EXPECT_EQ(domain.mode(), ChipMode::kQuarantined);
  for (std::size_t i = 0; i < config.suspend_after; ++i)
    domain.process(make_reading(0, seq++, bad), nullptr);
  EXPECT_EQ(domain.mode(), ChipMode::kSuspended);

  // A suspended chip ignores everything.
  auto sealed = domain.process(make_reading(0, seq++, good), nullptr);
  EXPECT_FALSE(sealed.accepted);
  EXPECT_EQ(sealed.reason, RejectReason::kSuspended);

  // resume() lifts into quarantine, not straight to healthy.
  domain.resume();
  EXPECT_EQ(domain.mode(), ChipMode::kQuarantined);
}

TEST(ChipDomain, MixedGoodReadingsResetTheRejectStreak) {
  SyntheticFleetSpec spec;
  ChipDomain::Config config;
  config.quarantine_after = 3;
  ChipDomain domain = make_domain(spec, config);

  const linalg::Vector bad = level_reading(3, 0.9);
  const linalg::Vector good = level_reading(spec.sensors, spec.nominal_v);
  std::uint64_t seq = 1;
  // bad bad good, repeated: never quarantined — the streak resets.
  for (int round = 0; round < 5; ++round) {
    domain.process(make_reading(0, seq++, bad), nullptr);
    domain.process(make_reading(0, seq++, bad), nullptr);
    domain.process(make_reading(0, seq++, good), nullptr);
    EXPECT_EQ(domain.mode(), ChipMode::kHealthy) << "round " << round;
  }
  EXPECT_EQ(domain.stats().quarantine_episodes, 0u);
}

// ---- Alarm debounce property test ---------------------------------------

/// The debounce contract, restated independently of the monitor: alarm
/// asserts after `assert_after` consecutive crossings, releases after
/// `release_after` consecutive safe samples.
struct ReferenceDebounce {
  bool alarm = false;
  std::size_t crossing_streak = 0;
  std::size_t safe_streak = 0;
  std::size_t episodes = 0;
  std::size_t alarm_samples = 0;

  void step(bool crossing, std::size_t assert_after,
            std::size_t release_after) {
    if (crossing) {
      ++crossing_streak;
      safe_streak = 0;
      if (!alarm && crossing_streak >= assert_after) {
        alarm = true;
        ++episodes;
      }
    } else {
      ++safe_streak;
      crossing_streak = 0;
      if (alarm && safe_streak >= release_after) alarm = false;
    }
    if (alarm) ++alarm_samples;
  }
};

TEST(ChipDomain, AlarmHysteresisMatchesReferenceOnRandomizedSequences) {
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(0xA1A2 + trial);
    SyntheticFleetSpec spec;
    spec.alarm_consecutive = 1 + rng.uniform_index(4);
    spec.release_consecutive = 1 + rng.uniform_index(4);
    ChipDomain domain = make_domain(spec, {});
    ReferenceDebounce reference;

    const double safe_level = spec.emergency_threshold + 0.08;
    const double crossing_level = spec.emergency_threshold - 0.05;
    bool prev_alarm = false;
    for (std::uint64_t t = 0; t < 500; ++t) {
      const bool want_crossing = rng.bernoulli(0.35);
      const linalg::Vector r = level_reading(
          spec.sensors, want_crossing ? crossing_level : safe_level);
      auto out = domain.process(make_reading(0, t + 1, r), nullptr);
      ASSERT_TRUE(out.accepted);
      // Feed the monitor's own crossing verdict to the reference automaton:
      // the property under test is the debounce, not the prediction.
      reference.step(out.decision.crossing, spec.alarm_consecutive,
                     spec.release_consecutive);
      ASSERT_EQ(out.decision.alarm, reference.alarm)
          << "trial " << trial << " sample " << t;
      ASSERT_EQ(out.alarm_transition, out.decision.alarm != prev_alarm)
          << "trial " << trial << " sample " << t;
      prev_alarm = out.decision.alarm;
    }
    const ChipStats stats = domain.stats();
    EXPECT_EQ(stats.alarm_episodes, reference.episodes) << "trial " << trial;
    EXPECT_EQ(stats.alarm_samples, reference.alarm_samples)
        << "trial " << trial;
  }
}

// ---- Checkpoint round-trips ---------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  /// Two-chip fleet: chip 0 fault-tolerant, chip 1 plain, both mid-story
  /// (open alarm episode, quarantine in progress) when checkpointed.
  static std::unique_ptr<MonitorFleet> build_fleet(
      const SyntheticFleetSpec& spec) {
    FleetConfig fc;
    fc.shards = 2;
    fc.quarantine_after = 3;
    fc.probation = 8;
    auto fleet = std::make_unique<MonitorFleet>(fc);
    auto model = make_synthetic_model(spec);
    fleet->add_chip(make_synthetic_monitor(spec, model, true), model);
    fleet->add_chip(make_synthetic_monitor(spec, model, false), model);
    return fleet;
  }

  /// Drives the fleet into a non-trivial state: droops mid-debounce on both
  /// chips, chip 1 quarantined via a malformed burst.
  static void advance(MonitorFleet& fleet, std::uint64_t& seq,
                      const SyntheticFleetSpec& spec) {
    for (std::uint64_t t = 0; t < 120; ++t, ++seq) {
      for (ChipId chip = 0; chip < 2; ++chip)
        fleet.ingest(make_reading(chip, seq,
                                  synthetic_reading(spec, chip, seq)));
    }
    for (std::uint64_t t = 0; t < 4; ++t, ++seq)
      fleet.ingest(make_reading(1, seq, level_reading(2, 0.9)));
    fleet.pump();
  }

  static std::string path(const char* name) {
    return ::testing::TempDir() + name;
  }
};

TEST_F(CheckpointTest, RoundTripIsBitExact) {
  SyntheticFleetSpec spec;
  auto fleet = build_fleet(spec);
  std::uint64_t seq = 1;
  advance(*fleet, seq, spec);
  ASSERT_EQ(fleet->chip_mode(1), ChipMode::kQuarantined);

  const std::string first = path("fleet_ckpt_a.bin");
  ASSERT_TRUE(save_fleet_checkpoint(*fleet, first).ok());

  auto restored = build_fleet(spec);
  ASSERT_TRUE(load_fleet_checkpoint(*restored, first).ok());

  // Bit-exactness: re-saving the restored fleet reproduces the file.
  const std::string second = path("fleet_ckpt_b.bin");
  ASSERT_TRUE(save_fleet_checkpoint(*restored, second).ok());
  std::ifstream fa(first, std::ios::binary), fb(second, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);

  // Behavioral equivalence: both fleets decide the future identically —
  // alarm episodes, debounce position, quarantine progress all survived.
  advance(*fleet, seq, spec);
  std::uint64_t seq_replay = seq - 124;  // rewind advance()'s consumption
  advance(*restored, seq_replay, spec);
  for (ChipId chip = 0; chip < 2; ++chip) {
    const ChipStats a = fleet->chip_stats(chip);
    const ChipStats b = restored->chip_stats(chip);
    EXPECT_EQ(a.samples, b.samples) << "chip " << chip;
    EXPECT_EQ(a.alarm_episodes, b.alarm_episodes) << "chip " << chip;
    EXPECT_EQ(a.alarm_samples, b.alarm_samples) << "chip " << chip;
    EXPECT_EQ(a.alarm_active, b.alarm_active) << "chip " << chip;
    EXPECT_EQ(a.mode, b.mode) << "chip " << chip;
  }
}

TEST_F(CheckpointTest, CorruptedFilesAreRejectedWithoutSideEffects) {
  SyntheticFleetSpec spec;
  auto fleet = build_fleet(spec);
  std::uint64_t seq = 1;
  advance(*fleet, seq, spec);
  const std::string good = path("fleet_ckpt_good.bin");
  ASSERT_TRUE(save_fleet_checkpoint(*fleet, good).ok());

  // Flip one payload byte: checksum must catch it.
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  const std::string flipped = path("fleet_ckpt_flipped.bin");
  {
    std::ofstream out(flipped, std::ios::binary);
    out << bytes;
  }
  auto victim = build_fleet(spec);
  const Status st = load_fleet_checkpoint(*victim, flipped);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
  // The failed load touched nothing: the victim is still factory-fresh.
  EXPECT_EQ(victim->chip_stats(0).samples, 0u);
  EXPECT_EQ(victim->chip_mode(1), ChipMode::kHealthy);

  // Truncation mid-section.
  const std::string truncated = path("fleet_ckpt_trunc.bin");
  {
    std::ofstream out(truncated, std::ios::binary);
    out << bytes.substr(0, bytes.size() / 3);
  }
  EXPECT_EQ(load_fleet_checkpoint(*victim, truncated).code(),
            ErrorCode::kCorruption);

  // Chip-count mismatch: a one-chip fleet refuses a two-chip checkpoint.
  FleetConfig fc;
  MonitorFleet small(fc);
  auto model = make_synthetic_model(spec);
  small.add_chip(make_synthetic_monitor(spec, model, false), model);
  EXPECT_EQ(load_fleet_checkpoint(small, good).code(),
            ErrorCode::kInvalidArgument);

  // Missing file is an I/O error, not corruption.
  EXPECT_EQ(
      load_fleet_checkpoint(*victim, path("does_not_exist.bin")).code(),
      ErrorCode::kIo);
}

TEST_F(CheckpointTest, ChecksumValidForgedCountIsCorruptionNotBadAlloc) {
  // FNV-1a is not forgery resistant, so a malformed section can arrive
  // with a *valid* checksum. Blow up the first chip's out_streak element
  // count and re-stamp the checksum: the load must surface Corruption
  // through the Status contract instead of letting the huge reserve throw
  // std::length_error / std::bad_alloc out of load_fleet_checkpoint.
  SyntheticFleetSpec spec;
  auto fleet = build_fleet(spec);
  std::uint64_t seq = 1;
  advance(*fleet, seq, spec);
  const std::string good = path("fleet_ckpt_forge.bin");
  ASSERT_TRUE(save_fleet_checkpoint(*fleet, good).ok());

  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  const auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
  };
  const auto put_u64 = [&](std::size_t off, std::uint64_t v) {
    std::memcpy(bytes.data() + off, &v, sizeof(v));
  };

  // Walk: magic, version, meta section, then chip 0's section header.
  std::size_t off = 2 * sizeof(std::uint64_t);
  const std::uint64_t meta_len = u64_at(off + sizeof(std::uint64_t));
  off += 3 * sizeof(std::uint64_t) + meta_len;  // -> chip 0 section header
  const std::size_t chip_len_off = off + sizeof(std::uint64_t);
  const std::size_t chip_sum_off = off + 2 * sizeof(std::uint64_t);
  const std::size_t payload_off = off + 3 * sizeof(std::uint64_t);
  const std::uint64_t chip_len = u64_at(chip_len_off);

  // Inside the chip payload: 24 fixed u64 fields, health count + entries,
  // then the out_streak count we are forging.
  const std::uint64_t health_count =
      u64_at(payload_off + 24 * sizeof(std::uint64_t));
  const std::size_t streak_count_off =
      payload_off + (25 + health_count) * sizeof(std::uint64_t);
  put_u64(streak_count_off, 0x0FFFFFFFFFFFFFF0ULL);
  put_u64(chip_sum_off,
          fnv1a64(bytes.data() + payload_off,
                  static_cast<std::size_t>(chip_len)));

  const std::string forged = path("fleet_ckpt_forged.bin");
  {
    std::ofstream out(forged, std::ios::binary);
    out << bytes;
  }
  auto victim = build_fleet(spec);
  const Status st = load_fleet_checkpoint(*victim, forged);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
  EXPECT_EQ(victim->chip_stats(0).samples, 0u);
}

// ---- SPSC ingestion ring -------------------------------------------------

TEST(SpscRing, HoldsExactlyTheRequestedCapacity) {
  for (std::size_t capacity : {1u, 2u, 5u, 4096u})
    EXPECT_EQ(SpscRing<int>(capacity).capacity(), capacity);
  // Five items in eight slots: the ring holds 5 and refuses the 6th on
  // every lap, while its indices wrap the slot array many times over.
  SpscRing<int> ring(5);
  int next = 0;
  for (int lap = 0; lap < 20; ++lap) {
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(next + i)) << lap;
    EXPECT_FALSE(ring.push(-1)) << "lap " << lap;
    EXPECT_EQ(ring.approx_size(), 5u);
    int out = -1;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(ring.pop(out));
      EXPECT_EQ(out, next + i);
    }
    EXPECT_FALSE(ring.pop(out));
    next += 5;
  }
}

TEST(SpscRing, FifoOrderSurvivesManyWraparounds) {
  SpscRing<int> ring(8);
  int next_push = 0, next_pop = 0;
  // Interleave pushes and pops so the indices wrap the 8-slot buffer many
  // times over; order must hold across every wrap.
  while (next_pop < 1000) {
    for (int burst = 0; burst < 5 && next_push < 1000; ++burst)
      if (ring.push(next_push)) ++next_push;
    int out = -1;
    while (ring.pop(out)) {
      EXPECT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullPushRefusesAndLeavesItemIntact) {
  SpscRing<std::string> ring(4);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(ring.push("item" + std::to_string(i)));
  // Refused, and the caller's item is only ever read (push takes const&).
  EXPECT_FALSE(ring.push("overflow"));
  EXPECT_EQ(ring.approx_size(), 4u);

  std::string out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, "item" + std::to_string(i));
  }
  EXPECT_FALSE(ring.pop(out));
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, SlotsCarryExactlyTheValuesPushed) {
  // A one-slot ring reuses the same slot storage on every lap: a shorter
  // reading after a longer one must come out at its own length, with no
  // leftover values from the earlier lap.
  SpscRing<Reading> ring(1);
  Reading out;
  const Reading longer = make_reading(3, 7, level_reading(20, 0.9));
  ASSERT_TRUE(ring.push(longer));
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out.values.size(), 20u);

  linalg::Vector values(16);
  for (std::size_t q = 0; q < values.size(); ++q)
    values[q] = 0.9 + 0.001 * static_cast<double>(q);
  Reading shorter = make_reading(5, 8, values);
  shorter.ingest_ms = 12.5;
  ASSERT_TRUE(ring.push(shorter));
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out.chip, 5u);
  EXPECT_EQ(out.sequence, 8u);
  EXPECT_EQ(out.ingest_ms, 12.5);
  ASSERT_EQ(out.values.size(), 16u);
  for (std::size_t q = 0; q < values.size(); ++q)
    EXPECT_EQ(out.values[q], values[q]) << "value " << q;
}

TEST(SpscRing, ConcurrentProducerConsumerDeliversEverythingInOrder) {
  // One producer thread, one consumer thread, a ring far smaller than the
  // item count: every full/empty race path runs, and under TSan (the
  // build-tsan CI job runs this binary) any missing happens-before edge in
  // the push/pop protocol is a hard failure.
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kItems = 200000;
  std::thread producer([&] {
    std::uint64_t v = 0;
    while (v < kItems) {
      if (ring.push(v))
        ++v;
      else
        std::this_thread::yield();
    }
  });
  std::uint64_t expect = 0;
  while (expect < kItems) {
    std::uint64_t out = 0;
    if (ring.pop(out)) {
      ASSERT_EQ(out, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FleetFastPathLosesNothingAcrossShutdownDrain) {
  // Producer-lane ingest into a running fleet, stop() mid-stream: every
  // admitted reading must still be decided (the shutdown drain empties the
  // rings), and the chip's monitor must have seen the full sequence.
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 2;
  fc.producer_ring_capacity = 1 << 14;
  fc.queue_capacity = 1 << 14;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  constexpr std::size_t kChips = 4;
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId producer = fleet.register_producer();

  fleet.start();
  constexpr std::uint64_t kSamples = 500;
  std::uint64_t enqueued = 0;
  for (std::uint64_t t = 1; t <= kSamples; ++t)
    for (ChipId chip = 0; chip < kChips; ++chip)
      if (fleet
              .ingest(producer, make_reading(chip, t,
                                             synthetic_reading(spec, chip, t)))
              .accepted)
        ++enqueued;
  fleet.stop();  // shutdown drain: every lane must empty

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.enqueued, enqueued);
  EXPECT_EQ(stats.processed, enqueued);
  std::uint64_t accepted = 0;
  for (ChipId chip = 0; chip < kChips; ++chip)
    accepted += fleet.chip_stats(chip).accepted;
  EXPECT_EQ(accepted + stats.shed, kSamples * kChips);
}

TEST(SpscRing, FastPathDecisionsBitIdenticalToPlainIngest) {
  // The same stream through the producer-lane fast path (pump-drained) and
  // through plain ingest() must produce identical monitor counters — the
  // ring changes how readings travel, never what is decided.
  SyntheticFleetSpec spec;
  auto model = make_synthetic_model(spec);
  constexpr std::uint64_t kSamples = 300;

  FleetConfig fc;
  fc.shards = 2;
  MonitorFleet ring_fleet(fc);
  ring_fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId producer = ring_fleet.register_producer();
  MonitorFleet plain_fleet(fc);
  plain_fleet.add_chip(make_synthetic_monitor(spec, model, false), model);

  for (std::uint64_t t = 1; t <= kSamples; ++t) {
    ring_fleet.ingest(producer,
                      make_reading(0, t, synthetic_reading(spec, 0, t)));
    plain_fleet.ingest(make_reading(0, t, synthetic_reading(spec, 0, t)));
    if (t % 40 == 0) {
      ring_fleet.pump();
      plain_fleet.pump();
    }
  }
  ring_fleet.pump();
  plain_fleet.pump();

  const auto a = ring_fleet.persisted_states();
  const auto b = plain_fleet.persisted_states();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].monitor.samples, b[0].monitor.samples);
  EXPECT_EQ(a[0].monitor.alarm_samples, b[0].monitor.alarm_samples);
  EXPECT_EQ(a[0].monitor.alarm_episodes, b[0].monitor.alarm_episodes);
  EXPECT_EQ(a[0].last_sequence, b[0].last_sequence);
  EXPECT_EQ(a[0].accepted, b[0].accepted);
}

// ---- Producer-lane admission parity --------------------------------------

/// The outcome of the one reading decided between two stats snapshots: the
/// fleet reports a reading's fate only through the chip's counters.
RejectReason outcome_between(const ChipStats& before, const ChipStats& after) {
  if (after.accepted != before.accepted) return RejectReason::kNone;
  if (after.rejected_malformed != before.rejected_malformed)
    return RejectReason::kMalformed;
  if (after.rejected_nonfinite != before.rejected_nonfinite)
    return RejectReason::kNonFinite;
  if (after.rejected_stale != before.rejected_stale)
    return RejectReason::kStale;
  if (after.dropped_quarantined != before.dropped_quarantined)
    return RejectReason::kQuarantined;
  if (after.dropped_suspended != before.dropped_suspended)
    return RejectReason::kSuspended;
  return RejectReason::kStopped;  // nothing was decided
}

void expect_same_chip_stats(const ChipStats& a, const ChipStats& b,
                            const std::string& where) {
  EXPECT_EQ(a.mode, b.mode) << where;
  EXPECT_EQ(a.accepted, b.accepted) << where;
  EXPECT_EQ(a.rejected_malformed, b.rejected_malformed) << where;
  EXPECT_EQ(a.rejected_nonfinite, b.rejected_nonfinite) << where;
  EXPECT_EQ(a.rejected_stale, b.rejected_stale) << where;
  EXPECT_EQ(a.dropped_quarantined, b.dropped_quarantined) << where;
  EXPECT_EQ(a.dropped_suspended, b.dropped_suspended) << where;
  EXPECT_EQ(a.shed, b.shed) << where;
  EXPECT_EQ(a.quarantine_episodes, b.quarantine_episodes) << where;
  EXPECT_EQ(a.last_sequence, b.last_sequence) << where;
  EXPECT_EQ(a.samples, b.samples) << where;
  EXPECT_EQ(a.alarm_samples, b.alarm_samples) << where;
  EXPECT_EQ(a.alarm_episodes, b.alarm_episodes) << where;
  EXPECT_EQ(a.degraded_samples, b.degraded_samples) << where;
  EXPECT_EQ(a.degraded_episodes, b.degraded_episodes) << where;
  EXPECT_EQ(a.alarm_active, b.alarm_active) << where;
}

/// Feeds `stream` one reading at a time, through a producer lane or plain
/// ingest(), and waits for each decision before sending the next; returns
/// the chip's stats after every reading and the monitor's final counters.
std::vector<ChipStats> feed_one_at_a_time(MonitorFleet& fleet,
                                          const std::vector<Reading>& stream,
                                          bool lane, bool threaded,
                                          core::OnlineMonitor::Counters& end) {
  const ProducerId producer = lane ? fleet.register_producer() : 0;
  if (threaded) fleet.start();
  std::vector<ChipStats> after;
  std::uint64_t admitted = 0;
  for (const Reading& reading : stream) {
    const IngestResult result =
        lane ? fleet.ingest(producer, reading) : fleet.ingest(reading);
    EXPECT_TRUE(result.accepted) << "sequence " << reading.sequence;
    if (result.accepted) ++admitted;
    if (threaded) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (fleet.stats().processed < admitted &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    } else {
      fleet.pump();
    }
    after.push_back(fleet.chip_stats(0));
  }
  if (threaded) fleet.stop();
  end = fleet.persisted_states()[0].monitor;
  return after;
}

void check_lane_admission_parity(bool threaded) {
  SyntheticFleetSpec spec;
  spec.sensors = 16;
  auto model = make_synthetic_model(spec);

  // Right-size readings, a shorter and a longer one, a right-size reading
  // in the slot the longer one used, a NaN into the plain monitor, then
  // right-size readings again.
  std::vector<Reading> stream;
  std::vector<RejectReason> want;
  auto add = [&](linalg::Vector values, RejectReason reason) {
    stream.push_back(make_reading(0, stream.size() + 1, std::move(values)));
    want.push_back(reason);
  };
  auto clean = [&] {
    return synthetic_reading(spec, 0, stream.size() + 1);
  };
  for (int i = 0; i < 4; ++i) add(clean(), RejectReason::kNone);
  add(level_reading(spec.sensors - 4, spec.nominal_v),
      RejectReason::kMalformed);
  add(level_reading(spec.sensors + 4, spec.nominal_v),
      RejectReason::kMalformed);
  add(clean(), RejectReason::kNone);
  linalg::Vector poisoned = clean();
  poisoned[3] = std::numeric_limits<double>::quiet_NaN();
  add(std::move(poisoned), RejectReason::kNonFinite);
  for (int i = 0; i < 6; ++i) add(clean(), RejectReason::kNone);

  FleetConfig fc;
  fc.shards = 1;
  // One slot: every lane reading reuses the storage of the one before it.
  fc.producer_ring_capacity = 1;
  MonitorFleet lane_fleet(fc);
  lane_fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  MonitorFleet plain_fleet(fc);
  plain_fleet.add_chip(make_synthetic_monitor(spec, model, false), model);

  core::OnlineMonitor::Counters lane_end, plain_end;
  const std::vector<ChipStats> lane =
      feed_one_at_a_time(lane_fleet, stream, true, threaded, lane_end);
  const std::vector<ChipStats> plain =
      feed_one_at_a_time(plain_fleet, stream, false, threaded, plain_end);
  ASSERT_EQ(lane.size(), stream.size());
  ASSERT_EQ(plain.size(), stream.size());
  ChipStats lane_before, plain_before;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::string where = "reading " + std::to_string(i + 1);
    EXPECT_EQ(outcome_between(lane_before, lane[i]), want[i]) << where;
    EXPECT_EQ(outcome_between(plain_before, plain[i]), want[i]) << where;
    expect_same_chip_stats(lane[i], plain[i], where);
    lane_before = lane[i];
    plain_before = plain[i];
  }
  EXPECT_EQ(lane_end.samples, plain_end.samples);
  EXPECT_EQ(lane_end.rejected_samples, plain_end.rejected_samples);
  EXPECT_EQ(lane_end.alarm, plain_end.alarm);
  EXPECT_EQ(lane_end.crossing_streak, plain_end.crossing_streak);
  EXPECT_EQ(lane_end.safe_streak, plain_end.safe_streak);
  EXPECT_EQ(lane_end.alarm_samples, plain_end.alarm_samples);
  EXPECT_EQ(lane_end.alarm_episodes, plain_end.alarm_episodes);
  EXPECT_EQ(lane_fleet.stats().processed, stream.size());
}

TEST(ProducerLane, AdmissionMatchesPlainIngestInPumpMode) {
  check_lane_admission_parity(/*threaded=*/false);
}

TEST(ProducerLane, AdmissionMatchesPlainIngestThreaded) {
  check_lane_admission_parity(/*threaded=*/true);
}

}  // namespace
}  // namespace vmap::serve
