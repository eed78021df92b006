#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace vmap::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// One same-model group of batch readings staged for the fused
/// predict-and-min kernel. The values are copied out up front so the kernel
/// can run *after* the batch is published to the shard's inflight slot —
/// i.e. while the watchdog can already steal it — without ever reading
/// shared state.
struct PredictionGroup {
  const core::PlacementModel* model = nullptr;
  std::vector<std::size_t> indices;  ///< batch positions, column order
  linalg::Matrix readings;           ///< q_count x indices.size()
};

std::vector<PredictionGroup> build_prediction_plan(
    const std::vector<std::unique_ptr<ChipDomain>>& chips,
    const std::vector<Reading>& batch) {
  // Group eligible readings by shared model: one kernel call per model.
  // Eligible = chip opted into batching, is on the healthy fast path, and
  // the reading is well-formed — anything else takes the per-sample path
  // inside the monitor, so a wrong grouping guess can cost a wasted column
  // but never change a decision. A fleet serves one model or a few, so a
  // linear scan of the plan finds a reading's group.
  std::vector<PredictionGroup> plan;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Reading& r = batch[i];
    const ChipDomain& domain = *chips[r.chip];
    if (!domain.batchable()) continue;
    if (r.values.size() != domain.sensors()) continue;
    bool finite = true;
    for (std::size_t q = 0; q < r.values.size() && finite; ++q)
      finite = std::isfinite(r.values[q]);
    if (!finite) continue;
    const core::PlacementModel* model = domain.shared_model();
    auto group = std::find_if(
        plan.begin(), plan.end(),
        [model](const PredictionGroup& g) { return g.model == model; });
    if (group == plan.end()) {
      group = plan.emplace(plan.end());
      group->model = model;
    }
    group->indices.push_back(i);
  }
  for (PredictionGroup& group : plan) {
    const std::size_t q_count = group.model->sensor_rows().size();
    group.readings = linalg::Matrix(q_count, group.indices.size());
    for (std::size_t j = 0; j < group.indices.size(); ++j) {
      const linalg::Vector& values = batch[group.indices[j]].values;
      for (std::size_t q = 0; q < q_count; ++q)
        group.readings(q, j) = values[q];
    }
  }
  return plan;
}

/// Decides every planned reading's worst block; unplanned entries stay
/// empty and take the per-sample path.
void run_prediction_plan(const std::vector<PredictionGroup>& plan,
                         std::vector<std::optional<core::WorstBlock>>& worst) {
  for (const PredictionGroup& group : plan) {
    const std::vector<core::WorstBlock> decided =
        group.model->worst_from_sensor_readings_batch(group.readings);
    for (std::size_t j = 0; j < group.indices.size(); ++j)
      worst[group.indices[j]] = decided[j];
  }
}

}  // namespace

MonitorFleet::MonitorFleet(FleetConfig config) : config_(config) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->queue =
        std::make_unique<BoundedQueue<Reading>>(config_.queue_capacity);
    const std::string prefix = "serve.shard" + std::to_string(i);
    shard->depth_gauge = &metrics::gauge(prefix + ".queue_depth");
    shard->inflight_age_gauge = &metrics::gauge(prefix + ".inflight_age_ms");
    shards_.push_back(std::move(shard));
  }
}

MonitorFleet::~MonitorFleet() { stop(); }

ChipId MonitorFleet::add_chip(
    core::OnlineMonitor monitor,
    std::shared_ptr<const core::PlacementModel> shared_model) {
  VMAP_REQUIRE(!running(), "add_chip while the fleet is running");
  ChipDomain::Config dc;
  dc.quarantine_after = config_.quarantine_after;
  dc.probation = config_.probation;
  dc.suspend_after = config_.suspend_after;
  const ChipId id = static_cast<ChipId>(chips_.size());
  chips_.push_back(std::make_unique<ChipDomain>(
      id, std::move(monitor), std::move(shared_model), dc));
  chaos_delay_ms_.push_back(std::make_unique<std::atomic<double>>(0.0));
  return id;
}

IngestResult MonitorFleet::ingest(Reading reading) {
  if (!accepting_.load(std::memory_order_acquire))
    return {false, RejectReason::kStopped};
  if (reading.chip >= chips_.size())
    return {false, RejectReason::kUnknownChip};
  reading.ingest_ms = now_ms();
  ingested_.fetch_add(1, kRelaxed);
  Shard& shard = *shards_[shard_of(reading.chip)];
  ChipDomain& domain = *chips_[reading.chip];
  std::lock_guard<std::mutex> route(shard.route_mutex);
  if (shard.queue->closed()) return {false, RejectReason::kStopped};
  if (shard.queue->try_push(std::move(reading))) {
    enqueued_.fetch_add(1, kRelaxed);
    shard.depth_gauge->set(static_cast<double>(shard.queue->size()));
    return {true, RejectReason::kNone};
  }
  shed_.fetch_add(1, kRelaxed);
  domain.count_shed();
  return {false, RejectReason::kShed};
}

ProducerId MonitorFleet::register_producer() {
  VMAP_REQUIRE(!running(), "register_producer while the fleet is running");
  const ProducerId id = producer_count_++;
  for (auto& shard : shards_)
    shard->rings.push_back(std::make_unique<SpscRing<Reading>>(
        std::max<std::size_t>(1, config_.producer_ring_capacity)));
  return id;
}

IngestResult MonitorFleet::ingest(ProducerId producer, Reading reading) {
  if (!accepting_.load(std::memory_order_acquire))
    return {false, RejectReason::kStopped};
  if (reading.chip >= chips_.size())
    return {false, RejectReason::kUnknownChip};
  VMAP_REQUIRE(producer < producer_count_, "unknown producer id");
  const ChipId chip = reading.chip;
  reading.ingest_ms = now_ms();
  ingested_.fetch_add(1, kRelaxed);
  Shard& shard = *shards_[shard_of(chip)];
  // The ring copies the reading into its slot's own storage; `reading` and
  // its value buffer die here, on the producer's thread.
  if (shard.rings[producer]->push(reading)) {
    enqueued_.fetch_add(1, kRelaxed);
    return {true, RejectReason::kNone};
  }
  // Ring full: shed the newest, exactly like a full shard queue. Spilling
  // into the shared queue instead would reorder this producer's feed
  // around its ring backlog and the per-chip sequence check would then
  // reject the ring's stragglers as stale replays.
  shed_.fetch_add(1, kRelaxed);
  chips_[chip]->count_shed();
  return {false, RejectReason::kShed};
}

bool MonitorFleet::drain_rings(Shard& shard, std::vector<Reading>& batch,
                               std::vector<Reading>& spare,
                               std::uint64_t my_gen, std::size_t limit) {
  if (shard.rings.empty()) return true;
  std::lock_guard<std::mutex> lock(shard.inflight_mutex);
  if (shard.generation != my_gen) return false;
  for (auto& ring : shard.rings) {
    while (batch.size() < limit) {
      // Pop into a recycled reading, so the values land in a buffer this
      // consumer already owns.
      if (spare.empty()) spare.emplace_back();
      if (!ring->pop(spare.back())) break;
      batch.push_back(std::move(spare.back()));
      spare.pop_back();
    }
    if (batch.size() >= limit) break;
  }
  return true;
}

void MonitorFleet::recycle(Reading&& reading,
                           std::vector<Reading>& spare) const {
  // One drain's worth at most: plain-ingest traffic hands the worker
  // readings the rings never ask back for.
  if (spare.size() < 2 * config_.max_batch)
    spare.push_back(std::move(reading));
}

bool MonitorFleet::rings_look_empty(const Shard& shard) const {
  for (const auto& ring : shard.rings)
    if (!ring->empty()) return false;
  return true;
}

std::size_t MonitorFleet::pump() {
  VMAP_REQUIRE(!running(), "pump() is the non-threaded mode; stop() first");
  std::vector<std::size_t> handled(shards_.size(), 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    tasks.push_back([this, i, &handled] {
      Shard& shard = *shards_[i];
      std::vector<Reading> batch, spare;
      for (;;) {
        shard.queue->pop_batch(batch, config_.max_batch,
                               std::chrono::milliseconds(0));
        // Not running, so the generation is quiescent and this task is the
        // shard's only ring consumer.
        drain_rings(shard, batch, spare, shard.generation, config_.max_batch);
        if (batch.empty()) break;
        handled[i] += batch.size();
        execute_batch(shard, batch, spare, /*publish=*/false, 0);
      }
    });
  }
  parallel_invoke(tasks);
  std::size_t total = 0;
  for (std::size_t n : handled) total += n;
  return total;
}

void MonitorFleet::start() {
  VMAP_REQUIRE(!running(), "fleet is already running");
  watchdog_stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    BoundedQueue<Reading>* queue = shard.queue.get();
    shard.last_handled = shard.handled.load(kRelaxed);
    shard.stalled_since_ms = -1.0;
    std::uint64_t gen = 0;
    {
      std::lock_guard<std::mutex> lock(shard.inflight_mutex);
      gen = shard.generation;
    }
    shard.worker = std::thread([this, &shard, queue, gen] {
      worker_loop(shard, queue, gen);
    });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void MonitorFleet::stop() {
  if (!running_.exchange(false)) return;
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  // Retired (failed-over) workers first, while the live queues are still
  // open: a retired worker that popped a batch just before losing its
  // shard hands that batch back to the live queue, and joining it here
  // guarantees the hand-back lands before the queues close. The watchdog
  // is already joined, so no new retirements can appear.
  {
    std::lock_guard<std::mutex> lock(retired_mutex);
    for (auto& worker : retired_workers_)
      if (worker.joinable()) worker.join();
    retired_workers_.clear();
    retired_queues_.clear();
  }
  // Stop admission, then close every queue: close() keeps pending items
  // poppable, so the workers drain everything admitted before exiting.
  accepting_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> route(shard->route_mutex);
    shard->queue->close();
  }
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  // Ring residue: a producer racing stop() can land a push after its
  // shard's worker checked the rings for the last time. Decide the
  // stragglers here — stop() never discards an admitted reading.
  for (auto& shard : shards_) {
    std::vector<Reading> residue, spare;
    drain_rings(*shard, residue, spare, shard->generation,
                std::numeric_limits<std::size_t>::max());
    if (!residue.empty())
      execute_batch(*shard, residue, spare, /*publish=*/false, 0);
  }
  // Fresh queues so the stopped fleet can still be ingested into and
  // pump()ed (tests, checkpoint-then-inspect flows).
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> route(shard->route_mutex);
    shard->queue =
        std::make_unique<BoundedQueue<Reading>>(config_.queue_capacity);
  }
  accepting_.store(true, std::memory_order_release);
}

void MonitorFleet::worker_loop(Shard& shard, BoundedQueue<Reading>* queue,
                               std::uint64_t my_gen) {
  // Both keep their capacity and buffers from batch to batch.
  std::vector<Reading> batch, spare;
  for (;;) {
    // Busy rings: poll the queue instead of sleeping on it, so ring
    // traffic is never throttled by the queue's empty-wait. (Ring pushes
    // do not signal the queue's condvar; sleeping here would cap ring
    // throughput at one batch per timeout.)
    const auto wait = rings_look_empty(shard) ? std::chrono::milliseconds(2)
                                              : std::chrono::milliseconds(0);
    queue->pop_batch(batch, config_.max_batch, wait);
    if (!drain_rings(shard, batch, spare, my_gen, 2 * config_.max_batch)) {
      // Failed over between popping and draining: hand the queue items
      // back to the front of the live queue (they predate its contents)
      // and retire; the rings now belong to the replacement.
      if (!batch.empty()) {
        const std::size_t count = batch.size();
        std::lock_guard<std::mutex> route(shard.route_mutex);
        if (!shard.queue->force_push_front(std::move(batch)))
          shed_.fetch_add(count, kRelaxed);  // unreachable by design
      }
      return;
    }
    if (batch.empty()) {
      // rings_look_empty is exact here: this worker still owns the
      // generation, so it is the rings' consumer.
      if (queue->closed() && queue->size() == 0 && rings_look_empty(shard))
        return;
      continue;
    }
    if (!execute_batch(shard, batch, spare, /*publish=*/true, my_gen))
      return;  // the shard failed over; a replacement owns it now
  }
}

bool MonitorFleet::execute_batch(Shard& shard, std::vector<Reading>& batch,
                                 std::vector<Reading>& spare, bool publish,
                                 std::uint64_t my_gen) {
  std::vector<std::optional<core::WorstBlock>> worst(batch.size());
  const std::vector<PredictionGroup> plan =
      build_prediction_plan(chips_, batch);

  if (!publish) {
    run_prediction_plan(plan, worst);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double delay = chaos_delay_ms_[batch[i].chip]->load(kRelaxed);
      if (delay > 0) sleep_ms(delay);
      decide_one(batch[i], worst[i] ? &*worst[i] : nullptr);
      shard.handled.fetch_add(1, std::memory_order_release);
      recycle(std::move(batch[i]), spare);
    }
    batch.clear();
    return true;
  }

  // Threaded mode: share the batch through the inflight slot so the
  // watchdog can steal the un-decided remainder if this worker stalls.
  // Publishing happens *before* the fused kernel runs (the plan already
  // copied everything it needs), so even a stall inside the kernel leaves
  // the whole batch stealable.
  {
    std::unique_lock<std::mutex> lock(shard.inflight_mutex);
    if (shard.generation != my_gen) {
      // The shard failed over between popping this batch and publishing
      // it, so the steal never saw these readings. Hand them back to the
      // front of the live queue (they predate its backlog) and retire;
      // stop() joins retired workers before closing queues, so the
      // hand-back cannot be refused while anything else is running.
      lock.unlock();
      const std::size_t count = batch.size();
      std::lock_guard<std::mutex> route(shard.route_mutex);
      if (!shard.queue->force_push_front(std::move(batch)))
        shed_.fetch_add(count, kRelaxed);  // unreachable by design
      return false;
    }
    // The slot is empty here (the last batch of this generation cleared
    // it, or a steal did), so `batch` takes back its empty storage.
    shard.inflight.swap(batch);
    shard.inflight_pos = 0;
    shard.inflight_stolen = false;
    shard.inflight_since_ms.store(now_ms(), kRelaxed);
  }
  run_prediction_plan(plan, worst);
  for (;;) {
    Reading reading;
    std::size_t index = 0;
    {
      std::lock_guard<std::mutex> lock(shard.inflight_mutex);
      if (shard.generation != my_gen)
        return false;  // failed over mid-batch: remainder was stolen
      if (shard.inflight_stolen ||
          shard.inflight_pos >= shard.inflight.size())
        break;
      index = shard.inflight_pos++;
      reading = std::move(shard.inflight[index]);
      // Published before any potential stall so the watchdog can name the
      // chip to poison-pill.
      shard.current_chip.store(reading.chip, std::memory_order_release);
    }
    const double delay = chaos_delay_ms_[reading.chip]->load(kRelaxed);
    if (delay > 0) sleep_ms(delay);
    decide_one(reading, worst[index] ? &*worst[index] : nullptr);
    // Clear only if still ours: a replacement worker may have published
    // its own current chip while this (now stalled-and-woken) worker was
    // finishing its claimed reading.
    ChipId mine = reading.chip;
    shard.current_chip.compare_exchange_strong(mine, kNoChip,
                                               std::memory_order_release,
                                               std::memory_order_relaxed);
    shard.handled.fetch_add(1, std::memory_order_release);
    recycle(std::move(reading), spare);
  }
  std::lock_guard<std::mutex> lock(shard.inflight_mutex);
  if (shard.generation != my_gen) return false;
  if (!shard.inflight_stolen) {
    shard.inflight.clear();
    shard.inflight_pos = 0;
    shard.inflight_since_ms.store(0.0, kRelaxed);
  }
  return true;
}

void MonitorFleet::decide_one(const Reading& reading,
                              const core::WorstBlock* precomputed) {
  ChipDomain& domain = *chips_[reading.chip];
  ChipDomain::Outcome outcome = domain.process(reading, precomputed);
  if (outcome.accepted && outcome.alarm_transition) {
    AlarmEvent event;
    event.chip = reading.chip;
    event.sequence = reading.sequence;
    event.asserted = outcome.decision.alarm;
    event.worst_voltage = outcome.decision.worst_voltage;
    event.worst_row = outcome.decision.worst_row;
    event.latency_ms = now_ms() - reading.ingest_ms;
    static metrics::Histogram& alarm_latency = metrics::histogram(
        "serve.alarm_latency_ms", metrics::default_time_buckets_ms());
    alarm_latency.observe(event.latency_ms);
    {
      std::lock_guard<std::mutex> lock(alarm_mutex_);
      alarms_.push_back(event);
    }
    alarm_events_.fetch_add(1, kRelaxed);
  }
}

void MonitorFleet::watchdog_loop() {
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    sleep_ms(config_.watchdog_period_ms);
    const double now = now_ms();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const std::uint64_t handled = shard.handled.load(kRelaxed);
      std::size_t backlog = 0;
      {
        std::lock_guard<std::mutex> route(shard.route_mutex);
        backlog = shard.queue->size();
      }
      // Ring backlog counts toward the stall signal too: a worker wedged
      // with only ring traffic pending must still fail over.
      for (const auto& ring : shard.rings) backlog += ring->approx_size();
      shard.depth_gauge->set(static_cast<double>(backlog));
      const double since = shard.inflight_since_ms.load(kRelaxed);
      shard.inflight_age_gauge->set(since > 0 ? now - since : 0.0);
      {
        std::lock_guard<std::mutex> lock(shard.inflight_mutex);
        if (!shard.inflight_stolen)
          backlog += shard.inflight.size() - shard.inflight_pos;
      }
      if (handled != shard.last_handled || backlog == 0) {
        shard.last_handled = handled;
        shard.stalled_since_ms = -1.0;
        continue;
      }
      if (shard.stalled_since_ms < 0) {
        shard.stalled_since_ms = now;
        continue;
      }
      if (now - shard.stalled_since_ms >= config_.stall_timeout_ms) {
        fail_over(i);
        shard.stalled_since_ms = -1.0;
        shard.last_handled = shard.handled.load(kRelaxed);
      }
    }
  }
}

void MonitorFleet::fail_over(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];

  // 1. Steal the un-decided remainder of the inflight batch and identify
  //    the chip the stuck worker is buried in.
  std::vector<Reading> stolen;
  ChipId culprit = kNoChip;
  std::uint64_t new_gen = 0;
  {
    std::lock_guard<std::mutex> lock(shard.inflight_mutex);
    if (shard.inflight_stolen) return;  // failover already in flight
    for (std::size_t j = shard.inflight_pos; j < shard.inflight.size(); ++j)
      stolen.push_back(std::move(shard.inflight[j]));
    shard.inflight.clear();
    shard.inflight_pos = 0;
    shard.inflight_stolen = true;
    shard.inflight_since_ms.store(0.0, kRelaxed);
    // Revoke the old worker's batch ownership: from here on it exits on
    // its first look at the shard instead of racing the replacement.
    new_gen = ++shard.generation;
    culprit = shard.current_chip.load(std::memory_order_acquire);
  }

  // 2. Poison-pill the culprit so the replacement worker cannot be wedged
  //    by the same chip. The stuck worker only ever touches this chip's
  //    monitor from here on, and only to be told "suspended" — the domain
  //    boundary is what makes the concurrent handoff safe.
  if (culprit != kNoChip) chips_[culprit]->suspend();

  // 3. Swap in a fresh queue pre-filled with the stolen remainder followed
  //    by the old queue's backlog, original order preserved. Producers are
  //    held out by route_mutex for the duration, so nothing lands in the
  //    retiring queue. force_push: these readings were admitted once; a
  //    failover must not re-shed them.
  auto fresh = std::make_unique<BoundedQueue<Reading>>(config_.queue_capacity);
  std::unique_ptr<BoundedQueue<Reading>> old;
  {
    std::lock_guard<std::mutex> route(shard.route_mutex);
    old = std::move(shard.queue);
    shard.queue = std::move(fresh);
    for (auto& reading : stolen) shard.queue->force_push(std::move(reading));
    for (auto& reading : old->drain())
      shard.queue->force_push(std::move(reading));
  }
  // 4. Close the old queue: when the stuck worker finally wakes it sees the
  //    generation moved past it (or its queue closed-and-empty) and exits.
  //    Both the thread and its queue are parked for stop() to reap.
  old->close();
  {
    std::lock_guard<std::mutex> lock(retired_mutex);
    retired_workers_.push_back(std::move(shard.worker));
    retired_queues_.push_back(std::move(old));
  }
  // 5. Replacement worker on the fresh queue, owning the new generation.
  BoundedQueue<Reading>* queue = shard.queue.get();
  shard.worker = std::thread([this, &shard, queue, new_gen] {
    worker_loop(shard, queue, new_gen);
  });
  stall_failovers_.fetch_add(1, kRelaxed);
  static metrics::Counter& failovers =
      metrics::counter("serve.stall_failovers");
  failovers.add();
}

std::vector<AlarmEvent> MonitorFleet::drain_alarms() {
  std::lock_guard<std::mutex> lock(alarm_mutex_);
  std::vector<AlarmEvent> out;
  out.swap(alarms_);
  return out;
}

FleetStats MonitorFleet::stats() const {
  FleetStats s;
  s.ingested = ingested_.load(kRelaxed);
  s.enqueued = enqueued_.load(kRelaxed);
  s.shed = shed_.load(kRelaxed);
  for (const auto& shard : shards_)
    s.processed += shard->handled.load(std::memory_order_acquire);
  s.alarm_events = alarm_events_.load(kRelaxed);
  s.stall_failovers = stall_failovers_.load(kRelaxed);
  for (const auto& chip : chips_) {
    const ChipMode mode = chip->mode();
    if (mode == ChipMode::kQuarantined) ++s.chips_quarantined;
    if (mode == ChipMode::kSuspended) ++s.chips_suspended;
  }
  return s;
}

ChipStats MonitorFleet::chip_stats(ChipId chip) const {
  VMAP_REQUIRE(chip < chips_.size(), "unknown chip id");
  return chips_[chip]->stats();
}

ChipMode MonitorFleet::chip_mode(ChipId chip) const {
  VMAP_REQUIRE(chip < chips_.size(), "unknown chip id");
  return chips_[chip]->mode();
}

void MonitorFleet::suspend_chip(ChipId chip) {
  VMAP_REQUIRE(chip < chips_.size(), "unknown chip id");
  chips_[chip]->suspend();
}

void MonitorFleet::resume_chip(ChipId chip) {
  VMAP_REQUIRE(chip < chips_.size(), "unknown chip id");
  chips_[chip]->resume();
}

void MonitorFleet::set_chaos_delay_ms(ChipId chip, double delay_ms) {
  VMAP_REQUIRE(chip < chips_.size(), "unknown chip id");
  chaos_delay_ms_[chip]->store(delay_ms, kRelaxed);
}

std::vector<ChipDomain::PersistedState> MonitorFleet::persisted_states()
    const {
  std::vector<ChipDomain::PersistedState> states;
  states.reserve(chips_.size());
  for (const auto& chip : chips_) states.push_back(chip->persisted_state());
  return states;
}

Status MonitorFleet::restore_states(
    const std::vector<ChipDomain::PersistedState>& states) {
  if (states.size() != chips_.size())
    return Status::InvalidArgument(
        "checkpoint carries " + std::to_string(states.size()) +
        " chips, fleet has " + std::to_string(chips_.size()));
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    const Status st = chips_[i]->restore(states[i]);
    if (!st.ok())
      return Status(st.code(),
                    "chip " + std::to_string(i) + ": " + st.message());
  }
  return Status::Ok();
}

}  // namespace vmap::serve
