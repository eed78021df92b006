#include "sweep/journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/atomic_file.hpp"
#include "util/hash.hpp"

namespace vmap::sweep {

namespace {

constexpr std::uint64_t kMagic = 0x564D4150535750ULL;  // "VMAPSWP"
constexpr std::uint64_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4 * sizeof(std::uint64_t);
/// Records are short text lines; anything claiming more than this is a
/// corrupt length field, not a huge record (a garbage length would
/// otherwise be indistinguishable from a truncated tail).
constexpr std::uint64_t kMaxRecordBytes = 1 << 20;

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::string header_bytes(std::uint64_t matrix_hash) {
  std::string h;
  put_u64(h, kMagic);
  put_u64(h, kVersion);
  put_u64(h, matrix_hash);
  put_u64(h, fnv1a64(h.data(), h.size()));
  return h;
}

std::string serialize_record(const JournalRecord& r) {
  std::ostringstream s;
  char hash_hex[24];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(r.scenario_hash));
  s << static_cast<std::uint64_t>(r.event) << ' ' << r.job_index << ' '
    << hash_hex << ' ' << r.attempt;
  if (!r.detail.empty()) s << ' ' << r.detail;
  const std::string payload = s.str();
  std::string framed;
  put_u64(framed, payload.size());
  put_u64(framed, fnv1a64(payload.data(), payload.size()));
  framed += payload;
  return framed;
}

Status parse_record_payload(const std::string& payload,
                            const std::string& path, JournalRecord& r) {
  std::istringstream s(payload);
  std::uint64_t event = 0;
  std::string hash_hex;
  if (!(s >> event >> r.job_index >> hash_hex >> r.attempt))
    return Status::Corruption("sweep journal record malformed: " + path);
  if (event < 1 || event > 5)
    return Status::Corruption("sweep journal record has unknown event " +
                              std::to_string(event) + ": " + path);
  r.event = static_cast<JobEvent>(event);
  char* end = nullptr;
  r.scenario_hash = std::strtoull(hash_hex.c_str(), &end, 16);
  if (!end || *end != '\0' || hash_hex.size() != 16)
    return Status::Corruption("sweep journal record hash malformed: " + path);
  std::getline(s, r.detail);
  if (!r.detail.empty() && r.detail.front() == ' ')
    r.detail.erase(r.detail.begin());
  return Status::Ok();
}

}  // namespace

SweepJournal::SweepJournal(SweepJournal&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

SweepJournal& SweepJournal::operator=(SweepJournal&& other) noexcept {
  if (this != &other) {
    this->~SweepJournal();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

SweepJournal::~SweepJournal() {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = -1;
}

#if defined(__unix__) || defined(__APPLE__)

StatusOr<SweepJournal> SweepJournal::create(const std::string& path,
                                            std::uint64_t matrix_hash) {
  // The header lands atomically (tmp, fsync, rename, directory fsync), so
  // a crash leaves no journal or a whole header, never a torn one.
  const Status st = write_file_atomic(path, header_bytes(matrix_hash));
  if (!st.ok()) return st;
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return Status::Io("cannot open sweep journal: " + path);
  SweepJournal j;
  j.fd_ = fd;
  j.path_ = path;
  return j;
}

StatusOr<SweepJournal> SweepJournal::open_append(const std::string& path,
                                                 std::uint64_t matrix_hash) {
  // Full replay first: refuse to append after corruption, and pin the
  // matrix hash so a resumed sweep cannot mis-map job indices.
  StatusOr<JournalReplay> replay = replay_journal(path);
  if (!replay.ok()) return replay.status();
  if (replay->matrix_hash != matrix_hash)
    return Status::InvalidArgument(
        "sweep journal was written for a different scenario matrix: " + path);
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return Status::Io("cannot append to sweep journal: " + path);
  // A truncated tail record is dead weight once tolerated; appending after
  // it would corrupt the next record, so cut it off first.
  if (replay->dropped_tail_bytes > 0) {
    const off_t end = ::lseek(fd, 0, SEEK_END);
    if (end < 0 ||
        ::ftruncate(fd, end - static_cast<off_t>(
                              replay->dropped_tail_bytes)) != 0) {
      ::close(fd);
      return Status::Io("cannot trim sweep journal tail: " + path);
    }
    ::lseek(fd, 0, SEEK_END);
  }
  SweepJournal j;
  j.fd_ = fd;
  j.path_ = path;
  return j;
}

Status SweepJournal::append(const JournalRecord& record) {
  if (fd_ < 0)
    return Status::InvalidArgument("sweep journal is not open");
  const std::string framed = serialize_record(record);
  if (::write(fd_, framed.data(), framed.size()) !=
      static_cast<ssize_t>(framed.size()))
    return Status::Io("sweep journal append failed: " + path_);
  ::fsync(fd_);
  return Status::Ok();
}

#else  // non-POSIX stub (the sweep engine is POSIX-only, like CI)

StatusOr<SweepJournal> SweepJournal::create(const std::string&,
                                            std::uint64_t) {
  return Status::Io("sweep journal is POSIX-only");
}
StatusOr<SweepJournal> SweepJournal::open_append(const std::string&,
                                                 std::uint64_t) {
  return Status::Io("sweep journal is POSIX-only");
}
Status SweepJournal::append(const JournalRecord&) {
  return Status::Io("sweep journal is POSIX-only");
}

#endif

StatusOr<JournalReplay> replay_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Io("cannot read sweep journal: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();

  if (bytes.size() < kHeaderBytes)
    return Status::Corruption("sweep journal too small for a header: " +
                              path);
  if (get_u64(bytes.data()) != kMagic)
    return Status::Corruption("bad sweep journal magic: " + path);
  if (get_u64(bytes.data() + 8) != kVersion)
    return Status::Corruption("sweep journal version mismatch: " + path);
  if (fnv1a64(bytes.data(), 24) != get_u64(bytes.data() + 24))
    return Status::Corruption("sweep journal header checksum mismatch: " +
                              path);

  JournalReplay replay;
  replay.matrix_hash = get_u64(bytes.data() + 16);

  std::size_t pos = kHeaderBytes;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < 2 * sizeof(std::uint64_t)) {
      // Not even a full frame header: the crash-mid-append footprint.
      replay.dropped_tail_bytes = remaining;
      break;
    }
    const std::uint64_t len = get_u64(bytes.data() + pos);
    const std::uint64_t checksum = get_u64(bytes.data() + pos + 8);
    if (len > kMaxRecordBytes)
      return Status::Corruption(
          "sweep journal record length implausible (corrupt frame): " + path);
    if (remaining - 2 * sizeof(std::uint64_t) < len) {
      replay.dropped_tail_bytes = remaining;
      break;
    }
    const std::string payload = bytes.substr(pos + 16, len);
    if (fnv1a64(payload.data(), payload.size()) != checksum)
      return Status::Corruption("sweep journal record checksum mismatch: " +
                                path);
    JournalRecord record;
    const Status st = parse_record_payload(payload, path, record);
    if (!st.ok()) return st;
    replay.records.push_back(std::move(record));
    pos += 16 + len;
  }

  // Derive job states. Terminal records dedupe first-wins so a re-run that
  // raced a kill can never double-count a job.
  for (const JournalRecord& r : replay.records) {
    switch (r.event) {
      case JobEvent::kDispatched:
        if (!replay.completed.count(r.job_index) &&
            !replay.quarantined.count(r.job_index))
          replay.in_flight.insert(r.job_index);
        break;
      case JobEvent::kFailed:
        break;
      case JobEvent::kShardWritten:
        replay.shard_files[r.job_index] = r.detail;
        break;
      case JobEvent::kCompleted:
        if (replay.completed.count(r.job_index) ||
            replay.quarantined.count(r.job_index)) {
          ++replay.duplicate_terminals;
        } else {
          replay.completed.emplace(r.job_index, r);
          replay.in_flight.erase(r.job_index);
        }
        break;
      case JobEvent::kQuarantined:
        if (replay.completed.count(r.job_index) ||
            replay.quarantined.count(r.job_index)) {
          ++replay.duplicate_terminals;
        } else {
          replay.quarantined.emplace(r.job_index, r);
          replay.in_flight.erase(r.job_index);
        }
        break;
    }
  }
  return replay;
}

}  // namespace vmap::sweep
