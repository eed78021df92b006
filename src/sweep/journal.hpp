#pragma once
// Append-only, checksummed sweep journal.
//
// Every job state transition (dispatched / failed / completed /
// quarantined) is appended as one length-framed, FNV-1a-checksummed record
// and fsync'd, so a sweep killed with SIGKILL at any instant can be
// resumed: replay_journal() rebuilds the exact job states and `--resume`
// skips completed jobs exactly-once (their recorded result payloads feed
// the aggregate report byte-identically) while re-running in-flight ones.
//
// Durability/corruption contract (locked in by tests/sweep_journal_test):
//   * a truncated trailing record — the footprint of a crash mid-append —
//     is tolerated: replay stops there and reports the dropped bytes;
//   * any checksum mismatch, bad header, or oversized length field past
//     the header is rejected with kCorruption (bit rot must never be
//     silently replayed);
//   * duplicate terminal records for a job (possible when a kill lands
//     between a worker finishing and the supervisor's record reaching the
//     journal on a previous run) are deduplicated first-record-wins.
//
// The journal header also pins the scenario-matrix hash: resuming a
// journal against a different matrix is refused (job indices would alias).

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace vmap::sweep {

/// Job state transitions recorded in the journal.
enum class JobEvent : std::uint64_t {
  kDispatched = 1,  ///< attempt handed to a worker subprocess
  kFailed = 2,      ///< attempt ended in a classified failure
  kCompleted = 3,   ///< terminal: verified result payload in `detail`
  kQuarantined = 4, ///< terminal: failure class in `detail`, sweep went on
  kShardWritten = 5,  ///< job's telemetry shard landed; path in `detail`
};

struct JournalRecord {
  JobEvent event = JobEvent::kDispatched;
  std::uint64_t job_index = 0;
  std::uint64_t scenario_hash = 0;
  std::uint64_t attempt = 0;
  std::string detail;  ///< payload / failure class; free text, no newlines
};

/// Appending writer. create() truncates to a fresh journal; open_append()
/// validates the existing header (magic, version, checksum, matrix hash)
/// and appends after the last valid record.
class SweepJournal {
 public:
  SweepJournal() = default;
  SweepJournal(SweepJournal&&) noexcept;
  SweepJournal& operator=(SweepJournal&&) noexcept;
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;
  ~SweepJournal();

  static StatusOr<SweepJournal> create(const std::string& path,
                                       std::uint64_t matrix_hash);
  static StatusOr<SweepJournal> open_append(const std::string& path,
                                            std::uint64_t matrix_hash);

  /// Serializes, appends in one write, and fsyncs. Thread-safe via the
  /// caller's serialization (the supervisor holds one journal mutex).
  Status append(const JournalRecord& record);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

/// Everything replay learns from a journal.
struct JournalReplay {
  std::uint64_t matrix_hash = 0;
  std::vector<JournalRecord> records;       ///< every valid record, in order
  std::size_t dropped_tail_bytes = 0;       ///< truncated-tail tolerance
  std::size_t duplicate_terminals = 0;      ///< deduped duplicate records

  // Derived job states (terminal records deduped first-wins):
  std::map<std::uint64_t, JournalRecord> completed;    ///< by job index
  std::map<std::uint64_t, JournalRecord> quarantined;  ///< by job index
  std::set<std::uint64_t> in_flight;  ///< dispatched, no terminal record
  /// Telemetry shard paths by job index (last record wins: a re-run's
  /// shard overwrites its predecessor's file too). Informational — job
  /// state never depends on shard records.
  std::map<std::uint64_t, std::string> shard_files;
};

/// Validates and replays a journal. kIo when the file cannot be read,
/// kCorruption for a bad header or any corrupt record before the tail.
StatusOr<JournalReplay> replay_journal(const std::string& path);

}  // namespace vmap::sweep
