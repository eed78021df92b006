#pragma once
// MonitorFleet: the multi-chip serving engine.
//
// Registers N chips (each its own ChipDomain fault domain), ingests sensor
// readings through bounded per-shard queues, and decides them in
// micro-batches. A decision needs only the lowest predicted block voltage
// and its row, so the healthy readings of same-model chips in a batch are
// decided by one fused predict-and-min kernel call that never builds a
// prediction vector (bit-identical to the per-sample path; see
// PlacementModel::worst_from_sensor_readings_batch). Alarm transitions are
// appended to an in-process sink with their ingest-to-decision latency.
//
// Two execution modes share the same decision path:
//
//  * pump() — deterministic: the caller drains every shard on the global
//    thread pool (one parallel task per shard) and returns when all queued
//    readings are decided. This is the mode tests and the bit-identity
//    harness use.
//  * start()/stop() — threaded: one worker thread per shard plus a watchdog.
//    The watchdog declares a shard stalled when its backlog stops advancing
//    for stall_timeout_ms, then fails it over: the inflight batch remainder
//    is stolen, the chip being processed is suspended (poison pill), the
//    shard gets a fresh queue pre-filled with the stolen + drained backlog
//    in original order, and a replacement worker takes over. Batch
//    ownership is a per-shard generation counter bumped at each failover:
//    every worker carries the generation it was spawned with, and the
//    moment the shard's generation moves past it the worker stops touching
//    the shared inflight slot and exits — so a stalled worker that wakes
//    while its replacement is mid-batch can never claim the replacement's
//    items or run a chip's monitor concurrently with it. A batch popped
//    just before the failover (not yet published, invisible to the steal)
//    is handed back to the front of the live queue instead of being
//    decided by the retired worker. No admitted reading is ever silently
//    lost — every one is decided, or dropped with a per-chip counter
//    naming why.
//
// Value storage: a reading admitted through plain ingest() moves into the
// shard queue and its value buffer travels with it. A reading admitted
// through a producer lane is copied into the lane ring's slot, whose
// buffer the slot owns and reuses lap after lap; the caller's Reading and
// its buffer are freed on the caller's thread when ingest returns. A shard
// worker pops ring values into value buffers it already owns (those of
// readings it decided earlier), so once warm a lane reading costs the
// worker no allocation and no free.
//
// Overload: try_push against a full shard queue sheds the newest reading
// (counted per chip and fleet-wide, reported to the caller as kShed).
// Shutdown: stop() closes the queues and drains what was admitted before
// joining — close() never discards pending items.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/online_monitor.hpp"
#include "core/pipeline.hpp"
#include "serve/bounded_queue.hpp"
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

  /// Admission: stamps the ingest time, routes to the owning shard, applies
  /// the overload shed policy. The decision itself happens later on the
  /// shard (pump() or a worker thread).
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
  /// it never spills into the shared queue, which would reorder the
  /// producer's feed around its ring backlog.
  IngestResult ingest(ProducerId producer, Reading reading);

  /// Deterministic mode: decides everything currently queued, one parallel
  /// task per shard on the global pool. Not concurrent with start().
  /// Returns the number of readings handled.
  std::size_t pump();

  /// Threaded mode: spawns one worker per shard plus the watchdog.
  void start();
  /// Closes the queues, drains what was admitted, joins every worker (and
  /// every failed-over worker). Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Removes and returns all alarm transitions recorded since the last
  /// drain, in decision order per shard.
  std::vector<AlarmEvent> drain_alarms();

  FleetStats stats() const;
  ChipStats chip_stats(ChipId chip) const;
  ChipMode chip_mode(ChipId chip) const;
  void suspend_chip(ChipId chip);
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
  /// One ingestion/decision lane. The queue pointer is swapped at failover;
  /// route_mutex makes the swap invisible to producers (nothing is pushed
  /// into a queue that is being retired).
  struct Shard {
    std::unique_ptr<BoundedQueue<Reading>> queue;
    std::mutex route_mutex;  ///< guards `queue` (producers + failover)
    /// One SPSC ingestion ring per registered producer. The vector itself
    /// only changes while the fleet is stopped; ring consumption is
    /// serialized by inflight_mutex (see drain_rings).
    std::vector<std::unique_ptr<SpscRing<Reading>>> rings;
    /// Readings decided on this shard since construction: the watchdog's
    /// liveness signal, and summed into FleetStats::processed (release
    /// increments after each decision, acquire loads in stats()).
    std::atomic<std::uint64_t> handled{0};
    /// Inflight micro-batch, shared with the watchdog for theft.
    std::mutex inflight_mutex;
    std::vector<Reading> inflight;
    std::size_t inflight_pos = 0;
    bool inflight_stolen = false;
    /// Batch-ownership epoch, guarded by inflight_mutex. fail_over() bumps
    /// it; a worker whose spawn-time generation no longer matches has been
    /// replaced and must exit without touching the inflight slot. Unlike
    /// inflight_stolen (reset by the replacement's next publish), this
    /// never moves backwards, so a late-waking retired worker cannot
    /// mistake the replacement's batch for its own.
    std::uint64_t generation = 0;
    std::atomic<ChipId> current_chip{kNoChip};
    std::thread worker;
    // Watchdog bookkeeping (watchdog-thread-owned).
    std::uint64_t last_handled = 0;
    double stalled_since_ms = -1.0;
    /// Observability: registry gauges cached at construction (registration
    /// takes a lock; updates are relaxed stores). Depth tracks the shard
    /// queue; inflight age is how long the current published batch has
    /// been outstanding — 0 when none is.
    metrics::Gauge* depth_gauge = nullptr;
    metrics::Gauge* inflight_age_gauge = nullptr;
    /// now_ms() when the current inflight batch was published; 0 between
    /// batches. Written by the owning worker, read by the watchdog.
    std::atomic<double> inflight_since_ms{0.0};
  };

  /// `my_gen` is the shard generation this worker owns; the loop exits as
  /// soon as a failover moves the shard past it.
  void worker_loop(Shard& shard, BoundedQueue<Reading>* queue,
                   std::uint64_t my_gen);
  /// Decides one batch and leaves `batch` empty, its capacity kept; every
  /// decided reading goes to `spare` (see recycle). `publish` shares the
  /// batch through the shard's inflight slot so the watchdog can steal the
  /// remainder (threaded mode only). Returns false when the shard failed
  /// over out from under the caller (shard.generation != my_gen): the
  /// batch — or its remainder — is now the replacement's responsibility
  /// and the caller must exit.
  bool execute_batch(Shard& shard, std::vector<Reading>& batch,
                     std::vector<Reading>& spare, bool publish,
                     std::uint64_t my_gen);
  /// Tops `batch` up to `limit` items from the shard's producer rings,
  /// popping each into a reading taken from `spare` so its values land in
  /// a buffer the caller owns. The consumer side of every ring is
  /// serialized by inflight_mutex, and the generation check inside keeps a
  /// retired worker from consuming concurrently with its replacement.
  /// Returns false when the shard has failed over past `my_gen`; the
  /// caller must hand back what it popped and exit without touching the
  /// rings.
  bool drain_rings(Shard& shard, std::vector<Reading>& batch,
                   std::vector<Reading>& spare, std::uint64_t my_gen,
                   std::size_t limit);
  /// Keeps a decided reading in its decider's `spare` for the next
  /// drain_rings to pop into, up to one worker drain's worth (2 x
  /// max_batch); past that the reading is freed.
  void recycle(Reading&& reading, std::vector<Reading>& spare) const;
  /// Racy any-thread check used to pick the queue wait: false negatives
  /// just cost one short queue timeout.
  bool rings_look_empty(const Shard& shard) const;
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
  std::atomic<bool> watchdog_stop_{false};
  std::thread watchdog_;
  /// Failed-over workers and their retired queues; joined/freed in stop().
  std::mutex retired_mutex;
  std::vector<std::thread> retired_workers_;
  std::vector<std::unique_ptr<BoundedQueue<Reading>>> retired_queues_;

  std::mutex alarm_mutex_;
  std::vector<AlarmEvent> alarms_;

  std::atomic<std::uint64_t> ingested_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> alarm_events_{0};
  std::atomic<std::uint64_t> stall_failovers_{0};
};

}  // namespace vmap::serve
