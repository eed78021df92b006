#pragma once
// MonitorFleet: the multi-chip serving engine.
//
// Registers N chips (each its own ChipDomain fault domain), admits sensor
// readings into per-shard SPSC lanes, and decides them in micro-batches. A
// decision needs only the lowest predicted block voltage and its row, so
// the healthy readings of same-model chips in a batch are decided by one
// fused predict-and-min kernel call that never builds a prediction vector
// (bit-identical to the per-sample path; see
// PlacementModel::worst_from_sensor_readings_batch). Alarm transitions are
// appended to an in-process sink with their ingest-to-decision latency.
//
// Lanes are the only ingest path. Every shard has one SpscRing per
// registered producer (ingest(ProducerId, Reading), mutex-free) and one
// plain-ingest ring of queue_capacity slots whose producer side the
// shard's route mutex serializes (ingest(Reading), any thread). A full
// lane sheds the newest reading (counted per chip and fleet-wide, reported
// to the caller as kShed).
//
// Two execution modes share the same decision path:
//
//  * pump() — deterministic: the caller drains every shard on the global
//    thread pool (one parallel task per shard) and returns when all
//    admitted readings are decided. This is the mode tests and the
//    bit-identity harness use.
//  * start()/stop() — threaded: one worker thread per shard plus a watchdog.
//    A worker that has caught up with its lanes looks at them once more
//    after a few microseconds, then sleeps on a C++20 atomic wait until a
//    push wakes it (see worker_loop for the handshake). The watchdog
//    declares a shard stalled when its backlog stops advancing for
//    stall_timeout_ms, then fails it over: the chip being processed is
//    suspended (poison pill), and a replacement worker takes the shard
//    together with the un-decided remainder of the inflight batch.
//
// Batch ownership: a worker pops lane readings straight into the shard's
// inflight slot while holding the inflight mutex, so a failover's steal
// always sees every popped reading; nothing is ever handed back. Each
// worker carries the shard generation it was spawned with, and fail_over()
// bumps it under the same mutex: the moment the shard's generation moves
// past a worker, that worker stops touching the slot and the lanes and
// exits — so a stalled worker that wakes while its replacement is
// mid-batch can never claim the replacement's items or run a chip's
// monitor concurrently with it. The stolen remainder stays in the slot
// under the new generation, and the replacement decides it before it
// reads any lane, so every chip's readings are decided in order. No
// admitted reading is ever silently lost — every one is decided, or
// dropped with a per-chip counter naming why.
//
// Value storage: every reading is copied into a lane slot that owns its
// value buffer and reuses it lap after lap; the caller's Reading and its
// buffer are freed on the caller's thread when ingest returns. A shard
// worker pops lane values into value buffers it already owns (those of
// readings it decided earlier), so once warm a reading costs the worker no
// allocation and no free. The same holds for a batch: the prediction plan,
// its reading matrices and the kernel's scratch live in a BatchScratch on
// the deciding thread and are reused batch after batch.
//
// Shutdown: stop() ends the watchdog's wait at once, stops admission, wakes
// the workers, lets each drain its lanes before joining, and decides any
// reading a racing producer landed after that — stop() never discards an
// admitted reading.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/online_monitor.hpp"
#include "core/pipeline.hpp"
#include "serve/chip_domain.hpp"
#include "serve/spsc_ring.hpp"
#include "serve/types.hpp"
#include "util/metrics.hpp"
#include "util/status.hpp"

namespace vmap::serve {

class MonitorFleet {
 public:
  explicit MonitorFleet(FleetConfig config = {});
  ~MonitorFleet();
  MonitorFleet(const MonitorFleet&) = delete;
  MonitorFleet& operator=(const MonitorFleet&) = delete;

  /// Registers a chip; returns its dense id. Pass the PlacementModel the
  /// monitor was built from as `shared_model` to let the fleet decide this
  /// chip's healthy readings in the fused kernel call of its same-model
  /// peers (typical fleets monitor many dies of one design); null sends
  /// every reading down the monitor's per-sample path. Only valid while not
  /// running.
  ChipId add_chip(core::OnlineMonitor monitor,
                  std::shared_ptr<const core::PlacementModel> shared_model =
                      nullptr);
  std::size_t num_chips() const { return chips_.size(); }

  /// Admission from any thread: stamps the ingest time and copies the
  /// reading into the owning shard's plain-ingest lane (route mutex held),
  /// shedding the newest reading when the lane is full. The decision itself
  /// happens later on the shard (pump() or a worker thread).
  IngestResult ingest(Reading reading);

  /// Registers an ingestion lane for one producer thread: one SPSC ring
  /// per shard, giving that thread a mutex-free ingest fast path. Only
  /// valid while not running. A given chip's feed must stay on one path —
  /// either a producer lane or plain ingest() — or the per-chip sequence
  /// check would see the two paths' interleaving as stale replays.
  ProducerId register_producer();

  /// Mutex-free fast-path admission (same shed policy, same accounting) —
  /// safe only from the single thread driving this producer id. The ring
  /// copies chip, sequence, ingest stamp and values into a slot that owns
  /// its value storage, so `reading` and its buffer are freed on this
  /// thread when the call returns. A full ring sheds the newest reading;
  /// it never spills into another lane, which would reorder the producer's
  /// feed around its ring backlog.
  IngestResult ingest(ProducerId producer, Reading reading);

  /// Deterministic mode: decides everything currently admitted, one parallel
  /// task per shard on the global pool. Not concurrent with start().
  /// Returns the number of readings handled.
  std::size_t pump();

  /// Threaded mode: spawns one worker per shard plus the watchdog.
  void start();
  /// Stops admission, drains what was admitted, joins every worker (and
  /// every failed-over worker). Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Removes and returns all alarm transitions recorded since the last
  /// drain, in decision order per shard.
  std::vector<AlarmEvent> drain_alarms();

  FleetStats stats() const;
  ChipStats chip_stats(ChipId chip) const;
  ChipMode chip_mode(ChipId chip) const;
  void resume_chip(ChipId chip);

  /// Chaos hook: every reading for `chip` sleeps this long before being
  /// decided. A large delay turns the owning shard into a stall (the
  /// watchdog's failover scenario); small ones model slow feeds.
  void set_chaos_delay_ms(ChipId chip, double delay_ms);

  const FleetConfig& config() const { return config_; }

  /// Checkpoint support: per-chip persisted state, chip order == chip id.
  /// Only call while idle (not running, or between pump() calls).
  std::vector<ChipDomain::PersistedState> persisted_states() const;
  /// Restores persisted_states() onto an identically-built fleet (same
  /// chips in the same order). InvalidArgument on a count mismatch; any
  /// per-chip shape mismatch aborts the restore with that chip's status.
  Status restore_states(
      const std::vector<ChipDomain::PersistedState>& states);

 private:
  /// One ingestion/decision lane set with its worker.
  struct Shard {
    /// lanes[0] is the plain-ingest lane; lanes[1 + p] is producer p's.
    /// The vector itself only changes while the fleet is stopped; lane
    /// consumption is serialized by inflight_mutex (see run_batch).
    std::vector<std::unique_ptr<SpscRing<Reading>>> lanes;
    /// Sleep handshake (see worker_loop): the word a worker waits on,
    /// which every wake-up bumps, and the value of it on which the shard's
    /// worker last announced it is about to sleep. Only the owner of the
    /// generation writes `announced`, under inflight_mutex.
    std::atomic<std::uint32_t> wake_epoch{0};
    std::atomic<std::uint32_t> announced{0};
    /// Serializes the plain-ingest lane's producer side.
    std::mutex route_mutex;
    /// Readings decided on this shard since construction: the watchdog's
    /// liveness signal, and summed into FleetStats::processed (release
    /// increments after each decision, acquire loads in stats()).
    std::atomic<std::uint64_t> handled{0};
    /// Inflight micro-batch, shared with the watchdog for theft. Readings
    /// [inflight_pos, end) are not claimed yet.
    std::mutex inflight_mutex;
    std::vector<Reading> inflight;
    std::size_t inflight_pos = 0;
    /// Batch-ownership epoch, guarded by inflight_mutex. fail_over() bumps
    /// it; a worker whose spawn-time generation no longer matches has been
    /// replaced and must exit without touching the slot or the lanes. It
    /// never moves backwards, so a late-waking retired worker cannot
    /// mistake the replacement's batch for its own.
    std::uint64_t generation = 0;
    /// Lane the next fill starts at, guarded by inflight_mutex; rotating
    /// it keeps one busy lane from starving the others.
    std::size_t next_lane = 0;
    std::atomic<ChipId> current_chip{kNoChip};
    std::thread worker;
    // Watchdog bookkeeping (watchdog-thread-owned).
    std::uint64_t last_handled = 0;
    double stalled_since_ms = -1.0;
    /// Observability: registry gauges cached at construction (registration
    /// takes a lock; updates are relaxed stores). Depth is the lane
    /// backlog; inflight age is how long the current batch has been
    /// outstanding — 0 when none is.
    metrics::Gauge* depth_gauge = nullptr;
    metrics::Gauge* inflight_age_gauge = nullptr;
    /// now_ms() when the current inflight batch was taken; 0 between
    /// batches. Written by the owning worker, read by the watchdog.
    std::atomic<double> inflight_since_ms{0.0};
  };

  /// run_batch's result when the shard failed over past the caller.
  static constexpr std::size_t kRetired = static_cast<std::size_t>(-1);

  /// The deciding thread's reusable batch state: recycled reading buffers,
  /// the prediction plan and the kernel's scratch (defined in fleet.cpp).
  struct BatchScratch;

  /// Counts an admission attempt on `shard`'s lane and wakes the worker
  /// if it announced it is about to sleep.
  IngestResult admit(Shard& shard, ChipId chip, bool pushed);
  /// Bumps the shard's wake word and wakes every thread waiting on it.
  static void wake(Shard& shard);
  /// `my_gen` is the shard generation this worker owns; the loop exits as
  /// soon as a failover moves the shard past it.
  void worker_loop(Shard& shard, std::uint64_t my_gen);
  /// Takes the shard's next micro-batch into the inflight slot — the
  /// stolen remainder a failover left there, or else up to `limit`
  /// readings popped from the lanes — and decides it. Every decided
  /// reading's buffer goes to `scratch.spare`, and lane pops land in
  /// buffers taken from it; the batch's prediction plan reuses the
  /// scratch's buffers. Returns the number of readings taken (0: the lanes
  /// were empty), or kRetired when the shard failed over past `my_gen`, in
  /// which case the slot's remainder is the replacement's.
  std::size_t run_batch(Shard& shard, BatchScratch& scratch,
                        std::uint64_t my_gen, std::size_t limit);
  /// Decides everything in the shard's slot and lanes on the calling
  /// thread, in max_batch micro-batches. Only while no worker runs.
  void drain(Shard& shard);
  void decide_one(const Reading& reading,
                  const core::WorstBlock* precomputed);
  void watchdog_loop();
  void fail_over(std::size_t shard_index);
  std::size_t shard_of(ChipId chip) const {
    return static_cast<std::size_t>(chip) % shards_.size();
  }

  FleetConfig config_;
  std::size_t producer_count_ = 0;
  std::vector<std::unique_ptr<ChipDomain>> chips_;
  std::vector<std::unique_ptr<std::atomic<double>>> chaos_delay_ms_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{true};
  /// The watchdog waits out each period on watchdog_cv_, so stop() ends
  /// the wait at once instead of sleeping through the rest of it.
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  ///< guarded by watchdog_mutex_
  std::thread watchdog_;
  /// Failed-over workers; joined in stop().
  std::mutex retired_mutex;
  std::vector<std::thread> retired_workers_;

  std::mutex alarm_mutex_;
  std::vector<AlarmEvent> alarms_;

  std::atomic<std::uint64_t> ingested_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> alarm_events_{0};
  std::atomic<std::uint64_t> stall_failovers_{0};
};

}  // namespace vmap::serve
