#pragma once
// Per-chip fault domain: one chip's monitor plus the admission boundary
// that keeps its misbehavior contained.
//
// Every reading crosses this boundary before it can touch the chip's
// OnlineMonitor: wrong-size vectors, NaN/Inf floods with no safe fallback,
// and stale/replayed sequences are rejected with a reason instead of
// propagating (the pre-PR behavior was a process abort on the first
// non-finite reading — fatal to a fleet). Persistent misbehavior escalates
// through a quarantine state machine:
//
//   Active --(quarantine_after consecutive rejects)--> Quarantined
//   Quarantined --(probation clean readings)---------> Active
//   Quarantined --(suspend_after bad readings)-------> Suspended
//
// Quarantined chips stop feeding their monitor entirely (their readings
// only advance probation), so a flapping feed cannot whipsaw the debounce
// state; Suspended chips are sealed until an operator resume or a
// checkpoint restore. All counters are relaxed atomics so fleet-wide stats
// can be snapshotted while shard workers are running; the monitor itself is
// single-owner (the owning shard worker) with ownership handed over through
// the fleet's failover locks.

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/online_monitor.hpp"
#include "serve/types.hpp"
#include "util/status.hpp"

namespace vmap::serve {

class ChipDomain {
 public:
  struct Config {
    std::size_t quarantine_after = 8;
    std::size_t probation = 16;
    std::size_t suspend_after = 3;
  };

  /// `shared_model`, when supplied, must be the exact model `monitor` was
  /// built from; it lets the fleet decide this chip's healthy readings in
  /// one fused predict-and-min kernel call with same-model peers. Null opts
  /// the chip out: every reading then takes the monitor's per-sample path.
  ChipDomain(ChipId id, core::OnlineMonitor monitor,
             std::shared_ptr<const core::PlacementModel> shared_model,
             const Config& config);

  ChipId id() const { return id_; }
  std::size_t sensors() const { return monitor_.model().sensor_rows().size(); }
  const core::PlacementModel* shared_model() const {
    return shared_model_.get();
  }
  ChipMode mode() const {
    return static_cast<ChipMode>(mode_.load(std::memory_order_acquire));
  }

  /// True when the next sample would take the plain healthy-model path —
  /// the batching heuristic. A wrong guess costs only one reading's share
  /// of the fused kernel: observe_with_worst ignores the precomputed worst
  /// block on any degraded or non-finite sample, so decisions never depend
  /// on this.
  bool batchable() const {
    return shared_model_ != nullptr && shared_model_->num_blocks() > 0 &&
           mode() == ChipMode::kHealthy;
  }

  struct Outcome {
    bool accepted = false;
    RejectReason reason = RejectReason::kNone;
    core::OnlineMonitor::Decision decision;  ///< valid when accepted
    bool alarm_transition = false;  ///< debounced alarm flipped this sample
  };
  /// Admits or rejects one reading and, if admitted, runs the monitor.
  /// `precomputed` is the reading's entry of the shared model's
  /// worst_from_sensor_readings_batch, or null for the per-sample path. On
  /// the precomputed path Outcome::decision.predicted stays empty; nothing
  /// in the serving layer reads it. Must only be called by the chip's
  /// owning shard worker.
  Outcome process(const Reading& reading,
                  const core::WorstBlock* precomputed);

  /// Seals the domain (watchdog poison pill / operator action).
  void suspend();
  /// Lifts a suspension into quarantine: the chip must earn its way back
  /// through a full probation before its monitor sees readings again.
  void resume();
  /// Producer-side overload accounting (the shed reading never reached the
  /// worker, so it is counted here, not in process()).
  void count_shed() { shed_.fetch_add(1, std::memory_order_relaxed); }

  ChipStats stats() const;

  /// Everything a checkpoint must carry to resume this chip bit-exactly:
  /// fault-domain state machine + monitor debounce/accounting + detector
  /// hysteresis.
  struct PersistedState {
    std::uint64_t mode = 0;
    std::uint64_t seen_any = 0;
    std::uint64_t last_sequence = 0;
    std::uint64_t consecutive_rejects = 0;
    std::uint64_t probation_ok = 0;
    std::uint64_t strikes = 0;
    std::uint64_t quarantine_episodes = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_malformed = 0;
    std::uint64_t rejected_nonfinite = 0;
    std::uint64_t rejected_stale = 0;
    std::uint64_t dropped_quarantined = 0;
    std::uint64_t dropped_suspended = 0;
    std::uint64_t shed = 0;
    core::OnlineMonitor::Counters monitor;
    core::SensorFaultDetector::RuntimeState detector;
  };
  /// Snapshot for checkpointing. Only meaningful while the fleet is idle
  /// (stopped, or between pump() calls).
  PersistedState persisted_state() const;
  /// Restores a persisted_state() snapshot; InvalidArgument if the snapshot
  /// does not fit this chip's monitor shape.
  Status restore(const PersistedState& state);

 private:
  void enter_quarantine();
  void note_reject(RejectReason reason);
  void mirror_monitor_counters();

  const ChipId id_;
  const Config config_;
  core::OnlineMonitor monitor_;
  std::shared_ptr<const core::PlacementModel> shared_model_;
  bool prev_alarm_ = false;  ///< worker-owned: alarm edge detection

  std::atomic<int> mode_{static_cast<int>(ChipMode::kHealthy)};
  std::atomic<std::uint64_t> seen_any_{0};
  std::atomic<std::uint64_t> last_sequence_{0};
  std::atomic<std::uint64_t> consecutive_rejects_{0};
  std::atomic<std::uint64_t> probation_ok_{0};
  std::atomic<std::uint64_t> strikes_{0};
  std::atomic<std::uint64_t> quarantine_episodes_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_malformed_{0};
  std::atomic<std::uint64_t> rejected_nonfinite_{0};
  std::atomic<std::uint64_t> rejected_stale_{0};
  std::atomic<std::uint64_t> dropped_quarantined_{0};
  std::atomic<std::uint64_t> dropped_suspended_{0};
  std::atomic<std::uint64_t> shed_{0};
  // Relaxed mirrors of the monitor's counters so stats() never touches the
  // (single-owner) monitor while a worker is inside it.
  std::atomic<std::uint64_t> m_samples_{0};
  std::atomic<std::uint64_t> m_alarm_samples_{0};
  std::atomic<std::uint64_t> m_alarm_episodes_{0};
  std::atomic<std::uint64_t> m_degraded_samples_{0};
  std::atomic<std::uint64_t> m_degraded_episodes_{0};
  std::atomic<bool> m_alarm_active_{false};
};

}  // namespace vmap::serve
