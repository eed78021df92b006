#include "serve/chip_domain.hpp"

#include <cmath>
#include <utility>

namespace vmap::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

ChipDomain::ChipDomain(ChipId id, core::OnlineMonitor monitor,
                       std::shared_ptr<const core::PlacementModel> shared_model,
                       const Config& config)
    : id_(id),
      config_(config),
      monitor_(std::move(monitor)),
      shared_model_(std::move(shared_model)) {}

void ChipDomain::enter_quarantine() {
  quarantine_episodes_.fetch_add(1, kRelaxed);
  consecutive_rejects_.store(0, kRelaxed);
  probation_ok_.store(0, kRelaxed);
  strikes_.store(0, kRelaxed);
  mode_.store(static_cast<int>(ChipMode::kQuarantined),
              std::memory_order_release);
}

void ChipDomain::note_reject(RejectReason reason) {
  switch (reason) {
    case RejectReason::kMalformed:
      rejected_malformed_.fetch_add(1, kRelaxed);
      break;
    case RejectReason::kNonFinite:
      rejected_nonfinite_.fetch_add(1, kRelaxed);
      break;
    case RejectReason::kStale:
      rejected_stale_.fetch_add(1, kRelaxed);
      break;
    default:
      break;
  }
  if (mode() == ChipMode::kQuarantined) {
    // A bad reading during probation is a strike; enough strikes seal the
    // domain for good (the feed is broken, not flapping).
    probation_ok_.store(0, kRelaxed);
    if (strikes_.fetch_add(1, kRelaxed) + 1 >= config_.suspend_after)
      mode_.store(static_cast<int>(ChipMode::kSuspended),
                  std::memory_order_release);
  } else {
    if (consecutive_rejects_.fetch_add(1, kRelaxed) + 1 >=
        config_.quarantine_after)
      enter_quarantine();
  }
}

void ChipDomain::mirror_monitor_counters() {
  const core::OnlineMonitor::Counters c = monitor_.counters();
  m_samples_.store(c.samples, kRelaxed);
  m_alarm_samples_.store(c.alarm_samples, kRelaxed);
  m_alarm_episodes_.store(c.alarm_episodes, kRelaxed);
  m_degraded_samples_.store(c.degraded_samples, kRelaxed);
  m_degraded_episodes_.store(c.degraded_episodes, kRelaxed);
  m_alarm_active_.store(c.alarm, kRelaxed);
}

ChipDomain::Outcome ChipDomain::process(const Reading& reading,
                                        const core::WorstBlock* precomputed) {
  Outcome out;
  const ChipMode entry_mode = mode();
  if (entry_mode == ChipMode::kSuspended) {
    dropped_suspended_.fetch_add(1, kRelaxed);
    out.reason = RejectReason::kSuspended;
    return out;
  }

  // Admission checks, cheapest first. A fault-tolerant monitor can absorb
  // partially non-finite readings through its fallback bank; a reading with
  // no finite entry (or any non-finite one for a plain monitor) has no safe
  // interpretation and is refused.
  RejectReason reject = RejectReason::kNone;
  if (reading.values.size() != sensors()) {
    reject = RejectReason::kMalformed;
  } else {
    std::size_t finite = 0;
    for (std::size_t i = 0; i < reading.values.size(); ++i)
      if (std::isfinite(reading.values[i])) ++finite;
    if (monitor_.fault_tolerant()) {
      if (finite == 0) reject = RejectReason::kNonFinite;
    } else if (finite != reading.values.size()) {
      reject = RejectReason::kNonFinite;
    }
  }
  if (reject == RejectReason::kNone && seen_any_.load(kRelaxed) != 0 &&
      reading.sequence <= last_sequence_.load(kRelaxed)) {
    reject = RejectReason::kStale;
  }
  if (reject != RejectReason::kNone) {
    note_reject(reject);
    out.reason = reject;
    return out;
  }

  // Valid reading. It always advances the staleness window (so a later
  // replay of it is still caught), even while quarantined.
  last_sequence_.store(reading.sequence, kRelaxed);
  seen_any_.store(1, kRelaxed);

  if (entry_mode == ChipMode::kQuarantined) {
    dropped_quarantined_.fetch_add(1, kRelaxed);
    if (probation_ok_.fetch_add(1, kRelaxed) + 1 >= config_.probation) {
      // Probation served: rejoin in whatever mode the monitor left off in.
      probation_ok_.store(0, kRelaxed);
      strikes_.store(0, kRelaxed);
      mode_.store(static_cast<int>(monitor_.degraded_active()
                                       ? ChipMode::kDegraded
                                       : ChipMode::kHealthy),
                  std::memory_order_release);
    }
    out.reason = RejectReason::kQuarantined;
    return out;
  }

  consecutive_rejects_.store(0, kRelaxed);
  core::OnlineMonitor::Decision decision =
      precomputed ? monitor_.observe_with_worst(reading.values, *precomputed)
                  : monitor_.observe(reading.values);
  if (decision.rejected) {
    // Defensive: admission above should have caught everything the monitor
    // refuses; treat a surprise refusal like any other bad reading.
    note_reject(RejectReason::kNonFinite);
    out.reason = RejectReason::kNonFinite;
    return out;
  }
  accepted_.fetch_add(1, kRelaxed);
  out.accepted = true;
  out.alarm_transition = decision.alarm != prev_alarm_;
  prev_alarm_ = decision.alarm;
  mode_.store(static_cast<int>(decision.degraded ? ChipMode::kDegraded
                                                 : ChipMode::kHealthy),
              std::memory_order_release);
  mirror_monitor_counters();
  out.decision = std::move(decision);
  return out;
}

void ChipDomain::suspend() {
  mode_.store(static_cast<int>(ChipMode::kSuspended),
              std::memory_order_release);
}

void ChipDomain::resume() {
  if (mode() != ChipMode::kSuspended) return;
  probation_ok_.store(0, kRelaxed);
  strikes_.store(0, kRelaxed);
  consecutive_rejects_.store(0, kRelaxed);
  mode_.store(static_cast<int>(ChipMode::kQuarantined),
              std::memory_order_release);
}

ChipStats ChipDomain::stats() const {
  ChipStats s;
  s.chip = id_;
  s.mode = mode();
  s.accepted = accepted_.load(kRelaxed);
  s.rejected_malformed = rejected_malformed_.load(kRelaxed);
  s.rejected_nonfinite = rejected_nonfinite_.load(kRelaxed);
  s.rejected_stale = rejected_stale_.load(kRelaxed);
  s.dropped_quarantined = dropped_quarantined_.load(kRelaxed);
  s.dropped_suspended = dropped_suspended_.load(kRelaxed);
  s.shed = shed_.load(kRelaxed);
  s.quarantine_episodes = quarantine_episodes_.load(kRelaxed);
  s.last_sequence = last_sequence_.load(kRelaxed);
  s.samples = m_samples_.load(kRelaxed);
  s.alarm_samples = m_alarm_samples_.load(kRelaxed);
  s.alarm_episodes = m_alarm_episodes_.load(kRelaxed);
  s.degraded_samples = m_degraded_samples_.load(kRelaxed);
  s.degraded_episodes = m_degraded_episodes_.load(kRelaxed);
  s.alarm_active = m_alarm_active_.load(kRelaxed);
  return s;
}

ChipDomain::PersistedState ChipDomain::persisted_state() const {
  PersistedState p;
  p.mode = static_cast<std::uint64_t>(mode_.load(kRelaxed));
  p.seen_any = seen_any_.load(kRelaxed);
  p.last_sequence = last_sequence_.load(kRelaxed);
  p.consecutive_rejects = consecutive_rejects_.load(kRelaxed);
  p.probation_ok = probation_ok_.load(kRelaxed);
  p.strikes = strikes_.load(kRelaxed);
  p.quarantine_episodes = quarantine_episodes_.load(kRelaxed);
  p.accepted = accepted_.load(kRelaxed);
  p.rejected_malformed = rejected_malformed_.load(kRelaxed);
  p.rejected_nonfinite = rejected_nonfinite_.load(kRelaxed);
  p.rejected_stale = rejected_stale_.load(kRelaxed);
  p.dropped_quarantined = dropped_quarantined_.load(kRelaxed);
  p.dropped_suspended = dropped_suspended_.load(kRelaxed);
  p.shed = shed_.load(kRelaxed);
  p.monitor = monitor_.counters();
  p.detector = monitor_.detector_state();
  return p;
}

Status ChipDomain::restore(const PersistedState& state) {
  if (state.mode > static_cast<std::uint64_t>(ChipMode::kSuspended))
    return Status::Corruption("chip checkpoint carries an unknown mode");
  // Validate the shaped part first so a mismatched snapshot leaves the
  // domain untouched.
  Status st = monitor_.restore_detector_state(state.detector);
  if (!st.ok()) return st;
  monitor_.restore_counters(state.monitor);
  prev_alarm_ = state.monitor.alarm;
  mode_.store(static_cast<int>(state.mode), std::memory_order_release);
  seen_any_.store(state.seen_any, kRelaxed);
  last_sequence_.store(state.last_sequence, kRelaxed);
  consecutive_rejects_.store(state.consecutive_rejects, kRelaxed);
  probation_ok_.store(state.probation_ok, kRelaxed);
  strikes_.store(state.strikes, kRelaxed);
  quarantine_episodes_.store(state.quarantine_episodes, kRelaxed);
  accepted_.store(state.accepted, kRelaxed);
  rejected_malformed_.store(state.rejected_malformed, kRelaxed);
  rejected_nonfinite_.store(state.rejected_nonfinite, kRelaxed);
  rejected_stale_.store(state.rejected_stale, kRelaxed);
  dropped_quarantined_.store(state.dropped_quarantined, kRelaxed);
  dropped_suspended_.store(state.dropped_suspended, kRelaxed);
  shed_.store(state.shed, kRelaxed);
  mirror_monitor_counters();
  return Status::Ok();
}

}  // namespace vmap::serve
