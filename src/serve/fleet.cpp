#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
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

using Lanes = std::vector<std::unique_ptr<SpscRing<Reading>>>;

bool all_empty(const Lanes& lanes) {
  for (const auto& lane : lanes)
    if (!lane->empty()) return false;
  return true;
}

/// A worker that has caught up with its producers waits kPollMs and looks
/// at its lanes once more before it announces that it is about to sleep.
/// Readings that arrive within that window make one batch instead of many,
/// which keeps the worker off the ring lines its producers are writing, and
/// a producer pushing microseconds apart never pays for a wake-up (a
/// syscall, and an inter-processor interrupt under a hypervisor).
constexpr double kPollMs = 0.005;

bool poll_lanes(const Lanes& lanes) {
  const double until = now_ms() + kPollMs;
  while (now_ms() < until) std::this_thread::yield();
  return !all_empty(lanes);
}

}  // namespace

/// A worker's reusable batch state. It lives on the deciding thread
/// (worker_loop, drain), never in the Shard: after fail_over() the retired
/// worker can still be inside the kernel with its plan while its
/// replacement builds the next one.
struct MonitorFleet::BatchScratch {
  /// One same-model group of batch readings staged for the fused
  /// predict-and-min kernel. The values are copied out up front so the
  /// kernel can run *after* the batch is published to the shard's inflight
  /// slot — i.e. while the watchdog can already steal it — without ever
  /// reading shared state.
  struct Group {
    const core::PlacementModel* model = nullptr;
    std::vector<std::size_t> indices;  ///< batch positions, column order
    /// q_count x C, C >= indices.size(): column j holds reading indices[j].
    /// Reused batch after batch by the same model, and widened only when
    /// the group outgrows it.
    linalg::Matrix readings;
    std::vector<core::WorstBlock> decided;  ///< column j's worst block
  };

  /// Value buffers of decided readings, reused by the next lane pops.
  std::vector<Reading> spare;
  /// plan[0, groups) is the current batch's prediction plan; the groups
  /// past it keep their models' buffers for later batches.
  std::vector<Group> plan;
  std::size_t groups = 0;
  /// Per batch position: the planned reading's worst block, or null for
  /// the per-sample path.
  std::vector<const core::WorstBlock*> worst;
  core::WorstScratch kernel;

  /// Groups `batch`'s eligible readings by shared model into plan[0,
  /// groups) and copies their values into each group's reading matrix.
  void build_plan(const std::vector<std::unique_ptr<ChipDomain>>& chips,
                  const std::vector<Reading>& batch);
  /// Decides every planned reading's worst block into worst[0, count);
  /// unplanned entries stay null.
  void run_plan(std::size_t count);
};

void MonitorFleet::BatchScratch::build_plan(
    const std::vector<std::unique_ptr<ChipDomain>>& chips,
    const std::vector<Reading>& batch) {
  // Group eligible readings by shared model: one kernel call per model.
  // Eligible = chip opted into batching, is on the healthy fast path, and
  // the reading is well-formed — anything else takes the per-sample path
  // inside the monitor, so a wrong grouping guess can cost a wasted column
  // but never change a decision. A fleet serves one model or a few, so a
  // linear scan of the plan finds a reading's group.
  groups = 0;
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
    std::size_t g = 0;
    while (g < groups && plan[g].model != model) ++g;
    if (g == groups) {
      // A model takes back the group it had in earlier batches, so a
      // group's reading matrix keeps one row count whichever model leads.
      std::size_t s = g;
      while (s < plan.size() && plan[s].model != model) ++s;
      if (s == plan.size()) plan.emplace_back().model = model;
      if (s != g) std::swap(plan[g], plan[s]);
      plan[g].indices.clear();
      ++groups;
    }
    plan[g].indices.push_back(i);
  }
  for (std::size_t g = 0; g < groups; ++g) {
    Group& group = plan[g];
    const std::size_t q_count = group.model->sensor_rows().size();
    const std::size_t n = group.indices.size();
    if (group.readings.rows() != q_count || group.readings.cols() < n) {
      // Geometric growth only for the matrix's own model: a fresh or
      // reshaped matrix starts at the batch's width.
      const std::size_t width = group.readings.rows() == q_count
                                    ? std::max(n, 2 * group.readings.cols())
                                    : n;
      group.readings = linalg::Matrix(q_count, width);
    }
    const std::size_t ldx = group.readings.cols();
    double* x = group.readings.data();
    for (std::size_t j = 0; j < n; ++j) {
      const linalg::Vector& values = batch[group.indices[j]].values;
      for (std::size_t q = 0; q < q_count; ++q) x[q * ldx + j] = values[q];
    }
  }
}

void MonitorFleet::BatchScratch::run_plan(std::size_t count) {
  worst.assign(count, nullptr);
  for (std::size_t g = 0; g < groups; ++g) {
    Group& group = plan[g];
    const std::size_t n = group.indices.size();
    if (group.decided.size() < n) group.decided.resize(n);
    group.model->worst_from_sensor_readings_batch(group.readings, n, kernel,
                                                  group.decided.data());
    for (std::size_t j = 0; j < n; ++j)
      worst[group.indices[j]] = &group.decided[j];
  }
}

MonitorFleet::MonitorFleet(FleetConfig config) : config_(config) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->lanes.push_back(
        std::make_unique<SpscRing<Reading>>(config_.queue_capacity));
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
  bool pushed = false;
  {
    std::lock_guard<std::mutex> route(shard.route_mutex);
    pushed = shard.lanes[0]->push(reading);
  }
  return admit(shard, reading.chip, pushed);
}

ProducerId MonitorFleet::register_producer() {
  VMAP_REQUIRE(!running(), "register_producer while the fleet is running");
  const ProducerId id = producer_count_++;
  for (auto& shard : shards_)
    shard->lanes.push_back(std::make_unique<SpscRing<Reading>>(
        std::max<std::size_t>(1, config_.producer_ring_capacity)));
  return id;
}

IngestResult MonitorFleet::ingest(ProducerId producer, Reading reading) {
  if (!accepting_.load(std::memory_order_acquire))
    return {false, RejectReason::kStopped};
  if (reading.chip >= chips_.size())
    return {false, RejectReason::kUnknownChip};
  VMAP_REQUIRE(producer < producer_count_, "unknown producer id");
  reading.ingest_ms = now_ms();
  ingested_.fetch_add(1, kRelaxed);
  Shard& shard = *shards_[shard_of(reading.chip)];
  // The ring copies the reading into its slot's own storage; `reading` and
  // its value buffer die here, on the producer's thread. A full ring sheds
  // the newest: spilling into another lane instead would reorder this
  // producer's feed around its ring backlog, and the per-chip sequence
  // check would then reject the ring's stragglers as stale replays.
  return admit(shard, reading.chip, shard.lanes[1 + producer]->push(reading));
}

IngestResult MonitorFleet::admit(Shard& shard, ChipId chip, bool pushed) {
  if (!pushed) {
    shed_.fetch_add(1, kRelaxed);
    chips_[chip]->count_shed();
    return {false, RejectReason::kShed};
  }
  enqueued_.fetch_add(1, kRelaxed);
  // StoreLoad, paired with the fence in worker_loop: either the worker's
  // re-check sees this push, or this load sees its announcement. Only the
  // first push after an announcement moves the epoch off the announced
  // value, so one sleep costs one notify however many pushes follow.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::uint32_t epoch = shard.announced.load(kRelaxed);
  if (shard.wake_epoch.load(kRelaxed) == epoch &&
      shard.wake_epoch.compare_exchange_strong(epoch, epoch + 1, kRelaxed))
    shard.wake_epoch.notify_all();
  return {true, RejectReason::kNone};
}

void MonitorFleet::wake(Shard& shard) {
  shard.wake_epoch.fetch_add(1, std::memory_order_release);
  shard.wake_epoch.notify_all();
}

std::size_t MonitorFleet::pump() {
  VMAP_REQUIRE(!running(), "pump() is the non-threaded mode; stop() first");
  const std::uint64_t before = stats().processed;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (auto& shard : shards_)
    tasks.push_back([this, &shard] { drain(*shard); });
  parallel_invoke(tasks);
  return static_cast<std::size_t>(stats().processed - before);
}

void MonitorFleet::drain(Shard& shard) {
  // No worker runs, so the generation is quiescent and this thread is the
  // shard's only lane consumer.
  const std::size_t limit = config_.max_batch;
  BatchScratch scratch;
  while (run_batch(shard, scratch, shard.generation, limit) != 0) {
  }
}

void MonitorFleet::start() {
  VMAP_REQUIRE(!running(), "fleet is already running");
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = false;
  }
  running_.store(true, std::memory_order_release);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.last_handled = shard.handled.load(kRelaxed);
    shard.stalled_since_ms = -1.0;
    std::uint64_t gen = 0;
    {
      std::lock_guard<std::mutex> lock(shard.inflight_mutex);
      gen = shard.generation;
    }
    shard.worker =
        std::thread([this, &shard, gen] { worker_loop(shard, gen); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void MonitorFleet::stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // No failover can start now. Stop admission and wake every worker: a
  // live one drains its lanes and exits, a retired one exits on its
  // generation check.
  accepting_.store(false, std::memory_order_release);
  for (auto& shard : shards_) wake(*shard);
  {
    std::lock_guard<std::mutex> lock(retired_mutex);
    for (auto& worker : retired_workers_)
      if (worker.joinable()) worker.join();
    retired_workers_.clear();
  }
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  // Lane residue: a producer racing stop() can land a push after its
  // shard's worker checked the lanes for the last time. Decide the
  // stragglers here — stop() never discards an admitted reading.
  for (auto& shard : shards_) drain(*shard);
  accepting_.store(true, std::memory_order_release);
}

void MonitorFleet::worker_loop(Shard& shard, std::uint64_t my_gen) {
  const std::size_t limit = 2 * config_.max_batch;
  BatchScratch scratch;
  for (;;) {
    // Read before looking for work: every wake-up after this read changes
    // the word, so the wait below cannot sleep through a push, a failover
    // or stop().
    const std::uint32_t epoch =
        shard.wake_epoch.load(std::memory_order_acquire);
    const std::size_t taken = run_batch(shard, scratch, my_gen, limit);
    if (taken == kRetired) return;
    if (!accepting_.load(std::memory_order_acquire)) {
      if (taken == 0) return;  // stop(): the lanes are drained
      continue;
    }
    if (taken == limit || poll_lanes(shard.lanes)) continue;
    // Announce, re-check the lanes, wait. The announcement is made under
    // the mutex fail_over() bumps the generation under, so a retired
    // worker can never overwrite its replacement's. The fence pairs with
    // the one in admit(): a StoreLoad barrier on both sides guarantees
    // that either this re-check sees a racing push or that producer sees
    // the announcement and wakes us (plain loads could miss both, even on
    // x86).
    {
      std::lock_guard<std::mutex> lock(shard.inflight_mutex);
      if (shard.generation != my_gen) return;
      shard.announced.store(epoch, kRelaxed);
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (all_empty(shard.lanes)) shard.wake_epoch.wait(epoch, kRelaxed);
  }
}

std::size_t MonitorFleet::run_batch(Shard& shard, BatchScratch& scratch,
                                    std::uint64_t my_gen, std::size_t limit) {
  std::vector<Reading>& spare = scratch.spare;
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(shard.inflight_mutex);
    if (shard.generation != my_gen) return kRetired;
    // A failover's stolen remainder predates every lane reading, so it is
    // decided first. Otherwise pop straight into the slot within this
    // hold: a steal always sees every popped reading.
    if (shard.inflight.empty()) {
      const std::size_t lanes = shard.lanes.size();
      for (std::size_t k = 0; k < lanes && shard.inflight.size() < limit;
           ++k) {
        SpscRing<Reading>& lane =
            *shard.lanes[(shard.next_lane + k) % lanes];
        while (shard.inflight.size() < limit) {
          // Pop into a recycled reading, so the values land in a buffer
          // this consumer already owns.
          if (spare.empty()) spare.emplace_back();
          if (!lane.pop(spare.back())) break;
          shard.inflight.push_back(std::move(spare.back()));
          spare.pop_back();
        }
      }
      shard.next_lane = (shard.next_lane + 1) % lanes;
    }
    count = shard.inflight.size();
    if (count == 0) return 0;
    // The plan copies everything the fused kernel reads, so the kernel
    // runs after the lock is released and even a stall inside it leaves
    // the whole batch stealable.
    scratch.build_plan(chips_, shard.inflight);
    shard.inflight_since_ms.store(now_ms(), kRelaxed);
  }
  scratch.run_plan(count);
  for (;;) {
    Reading reading;
    std::size_t index = 0;
    {
      std::lock_guard<std::mutex> lock(shard.inflight_mutex);
      if (shard.generation != my_gen)
        return kRetired;  // failed over mid-batch
      if (shard.inflight_pos >= shard.inflight.size()) break;
      index = shard.inflight_pos++;
      reading = std::move(shard.inflight[index]);
      // Published before any potential stall so the watchdog can name the
      // chip to poison-pill.
      shard.current_chip.store(reading.chip, std::memory_order_release);
    }
    const double delay = chaos_delay_ms_[reading.chip]->load(kRelaxed);
    if (delay > 0) sleep_ms(delay);
    decide_one(reading, scratch.worst[index]);
    // Clear only if still ours: a replacement worker may have published
    // its own current chip while this (now stalled-and-woken) worker was
    // finishing its claimed reading.
    ChipId mine = reading.chip;
    shard.current_chip.compare_exchange_strong(mine, kNoChip,
                                               std::memory_order_release,
                                               std::memory_order_relaxed);
    shard.handled.fetch_add(1, std::memory_order_release);
    spare.push_back(std::move(reading));
  }
  std::lock_guard<std::mutex> lock(shard.inflight_mutex);
  if (shard.generation != my_gen) return kRetired;
  shard.inflight.clear();
  shard.inflight_pos = 0;
  shard.inflight_since_ms.store(0.0, kRelaxed);
  return count;
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
  const std::chrono::duration<double, std::milli> period(
      config_.watchdog_period_ms);
  std::unique_lock<std::mutex> stop_lock(watchdog_mutex_);
  while (!watchdog_cv_.wait_for(stop_lock, period,
                                [this] { return watchdog_stop_; })) {
    stop_lock.unlock();
    const double now = now_ms();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const std::uint64_t handled = shard.handled.load(kRelaxed);
      std::size_t backlog = 0;
      for (const auto& lane : shard.lanes) backlog += lane->approx_size();
      shard.depth_gauge->set(static_cast<double>(backlog));
      const double since = shard.inflight_since_ms.load(kRelaxed);
      shard.inflight_age_gauge->set(since > 0 ? now - since : 0.0);
      {
        std::lock_guard<std::mutex> lock(shard.inflight_mutex);
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
    stop_lock.lock();
  }
}

void MonitorFleet::fail_over(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];

  // 1. Revoke the stuck worker's batch ownership and name the chip it is
  //    buried in. The un-decided remainder of its batch stays in the slot,
  //    now owned by the new generation; only the decided prefix goes.
  ChipId culprit = kNoChip;
  std::uint64_t new_gen = 0;
  {
    std::lock_guard<std::mutex> lock(shard.inflight_mutex);
    shard.inflight.erase(
        shard.inflight.begin(),
        shard.inflight.begin() +
            static_cast<std::ptrdiff_t>(shard.inflight_pos));
    shard.inflight_pos = 0;
    shard.inflight_since_ms.store(0.0, kRelaxed);
    new_gen = ++shard.generation;
    culprit = shard.current_chip.load(std::memory_order_acquire);
  }

  // 2. Poison-pill the culprit so the replacement worker cannot be wedged
  //    by the same chip. The stuck worker only ever touches this chip's
  //    monitor from here on, and only to be told "suspended" — the domain
  //    boundary is what makes the concurrent handoff safe.
  if (culprit != kNoChip) chips_[culprit]->suspend();

  // 3. Wake the retired worker in case it sleeps; it sees the generation
  //    moved past it and exits. The thread is parked for stop() to join.
  wake(shard);
  {
    std::lock_guard<std::mutex> lock(retired_mutex);
    retired_workers_.push_back(std::move(shard.worker));
  }
  // 4. The replacement owns the new generation: it decides the remainder
  //    left in the slot, then the lanes.
  shard.worker =
      std::thread([this, &shard, new_gen] { worker_loop(shard, new_gen); });
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
