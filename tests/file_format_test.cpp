// On-disk formats: golden bytes of the dataset cache, the fleet checkpoint
// and the sweep journal, and the sectioned-file reader's integrity checks.
// The checkpoint's own corruption and forged-count tests live in
// serve_test, the journal's tail and corruption rules in
// sweep_journal_test.
//
// The golden constants are the FNV-1a of files written from small fixed
// inputs. They were recorded from the writers that predate the shared
// sectioned-file module, so a format change (a reordered field, a new
// header word, a different checksum) fails here before it reaches a cache
// or checkpoint on disk.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fleet.hpp"
#include "serve/synthetic.hpp"
#include "sweep/journal.hpp"
#include "util/hash.hpp"
#include "util/sectioned_file.hpp"

namespace vmap {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::uint64_t file_fnv(const std::string& path) {
  const std::string bytes = slurp(path);
  EXPECT_FALSE(bytes.empty()) << path;
  return fnv1a64(bytes.data(), bytes.size());
}

linalg::Matrix ramp(std::size_t rows, std::size_t cols, double offset) {
  linalg::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      m(r, c) = offset + 0.25 * static_cast<double>(r) -
                0.125 * static_cast<double>(c);
  return m;
}

core::Dataset golden_dataset() {
  core::Dataset d;
  d.workload_hash = 0x0123456789abcdefULL;
  d.platform = 0xfedcba9876543210ULL;
  d.current_scale = 0.375;
  d.candidate_nodes = {3, 5, 8};
  d.critical_nodes = {1, 4};
  d.critical_block = {0, 1};
  d.x_train = ramp(3, 4, 0.9);
  d.f_train = ramp(2, 4, 0.8);
  d.x_test = ramp(3, 2, 0.7);
  d.f_test = ramp(2, 2, 0.6);
  d.benchmarks = {{"bm_a", 0, 2, 0, 1}, {"bm_b", 2, 4, 1, 2}};
  return d;
}

TEST(FileFormat, GoldenDatasetCacheBytes) {
  const std::string path = temp_path("golden_dataset.cache");
  ASSERT_TRUE(golden_dataset().try_save(path).ok());
  EXPECT_EQ(file_fnv(path), 0x2e1766ea141b621eULL);
  std::remove(path.c_str());
}

TEST(FileFormat, GoldenFleetCheckpointBytes) {
  serve::SyntheticFleetSpec spec;
  serve::FleetConfig config;
  config.shards = 2;
  serve::MonitorFleet fleet(config);
  auto model = serve::make_synthetic_model(spec);
  fleet.add_chip(serve::make_synthetic_monitor(spec, model, true), model);
  fleet.add_chip(serve::make_synthetic_monitor(spec, model, false), model);
  for (std::uint64_t t = 0; t < 150; ++t) {
    for (serve::ChipId chip = 0; chip < 2; ++chip) {
      serve::Reading r;
      r.chip = chip;
      r.sequence = t + 1;
      r.values = serve::synthetic_reading(spec, chip, t);
      fleet.ingest(r);
    }
  }
  fleet.pump();
  const std::string path = temp_path("golden_fleet.ckpt");
  ASSERT_TRUE(serve::save_fleet_checkpoint(fleet, path).ok());
  EXPECT_EQ(file_fnv(path), 0x645949ea5ea07733ULL);
  std::remove(path.c_str());
}

TEST(FileFormat, GoldenSweepJournalBytes) {
  const std::string path = temp_path("golden_sweep.journal");
  StatusOr<sweep::SweepJournal> journal =
      sweep::SweepJournal::create(path, 0x5eed5eed5eed5eedULL);
  ASSERT_TRUE(journal.ok()) << journal.status().to_string();
  sweep::JournalRecord record;
  record.event = sweep::JobEvent::kDispatched;
  record.job_index = 3;
  record.scenario_hash = 0x00c0ffee00c0ffeeULL;
  record.attempt = 1;
  ASSERT_TRUE(journal->append(record).ok());
  record.event = sweep::JobEvent::kCompleted;
  record.detail = "sensors=4 placement=00000000deadbeef te=0.25 rel_err=0.5";
  ASSERT_TRUE(journal->append(record).ok());
  EXPECT_EQ(file_fnv(path), 0x5642d596f4940a54ULL);
  std::remove(path.c_str());
}

TEST(FileFormat, DatasetCacheRoundTrips) {
  const std::string path = temp_path("roundtrip_dataset.cache");
  const core::Dataset d = golden_dataset();
  ASSERT_TRUE(d.try_save(path).ok());
  StatusOr<core::Dataset> loaded = core::Dataset::try_load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->workload_hash, d.workload_hash);
  EXPECT_EQ(loaded->platform, d.platform);
  EXPECT_EQ(loaded->current_scale, d.current_scale);
  EXPECT_EQ(loaded->candidate_nodes, d.candidate_nodes);
  EXPECT_EQ(loaded->critical_block, d.critical_block);
  EXPECT_EQ(loaded->x_test(2, 1), d.x_test(2, 1));
  ASSERT_EQ(loaded->benchmarks.size(), 2u);
  EXPECT_EQ(loaded->benchmarks[1].name, "bm_b");
  EXPECT_EQ(loaded->benchmarks[1].test_end, 2u);
  std::remove(path.c_str());
}

constexpr std::uint64_t kMagic = 0x5445535446494C45ULL;
constexpr std::uint64_t kVersion = 3;

/// A two-section file: [1: u64 7, string "ab"] [2: indices {4, 9}].
std::string write_sample(const char* name) {
  const std::string path = temp_path(name);
  SectionedWriter out(kMagic, kVersion);
  out.begin_section(1);
  out.put_u64(7);
  out.put_string("ab");
  out.begin_section(2);
  out.put_indices({4, 9});
  EXPECT_TRUE(out.write(path).ok());
  return path;
}

/// Reads write_sample()'s file the way its writer laid it out.
Status read_sample(const std::string& path) {
  StatusOr<SectionedReader> in =
      SectionedReader::open(path, "sample file", kMagic, kVersion);
  if (!in.ok()) return in.status();
  Status st = in->section(1, "first", [](PayloadCursor& s) {
    EXPECT_EQ(s.u64(), 7u);
    EXPECT_EQ(s.string(), "ab");
  });
  if (!st.ok()) return st;
  st = in->section(2, "second", [](PayloadCursor& s) {
    EXPECT_EQ(s.indices(), (std::vector<std::size_t>{4, 9}));
  });
  if (!st.ok()) return st;
  return in->finish();
}

void overwrite(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(SectionedFile, RoundTripsAndFramesEachSection) {
  const std::string path = write_sample("sectioned_roundtrip.bin");
  EXPECT_TRUE(read_sample(path).ok());
  // magic, version, then [tag][length][checksum][payload] per section.
  const std::string bytes = slurp(path);
  ASSERT_EQ(bytes.size(), 2 * 8 + (3 * 8 + 8 + 8 + 2) + (3 * 8 + 3 * 8));
  std::uint64_t words[5];
  std::memcpy(words, bytes.data(), sizeof(words));
  EXPECT_EQ(words[0], kMagic);
  EXPECT_EQ(words[1], kVersion);
  EXPECT_EQ(words[2], 1u);
  EXPECT_EQ(words[3], 18u);
  EXPECT_EQ(words[4], fnv1a64(bytes.data() + 40, 18));
  std::remove(path.c_str());
}

TEST(SectionedFile, EveryIntegrityFailureIsCorruption) {
  const std::string path = write_sample("sectioned_corrupt.bin");
  const std::string good = slurp(path);
  const auto code_after = [&](std::string bytes) {
    overwrite(path, bytes);
    return read_sample(path).code();
  };
  EXPECT_EQ(code_after(good + "x"), ErrorCode::kCorruption);  // trailing
  EXPECT_EQ(code_after(good.substr(0, good.size() - 1)),
            ErrorCode::kCorruption);  // truncated
  EXPECT_EQ(code_after(good.substr(0, 12)), ErrorCode::kCorruption);
  std::string flipped = good;
  flipped[good.size() - 3] ^= 0x40;  // payload byte: checksum mismatch
  EXPECT_EQ(code_after(flipped), ErrorCode::kCorruption);
  std::string retagged = good;
  retagged[16] = 9;  // first section's tag
  EXPECT_EQ(code_after(retagged), ErrorCode::kCorruption);
  std::string reversioned = good;
  reversioned[8] = 4;
  EXPECT_EQ(code_after(reversioned), ErrorCode::kCorruption);
  EXPECT_EQ(read_sample(temp_path("sectioned_missing.bin")).code(),
            ErrorCode::kIo);
  std::remove(path.c_str());
}

TEST(SectionedFile, PayloadMustBeReadToTheLastByte) {
  const std::string path = write_sample("sectioned_consume.bin");
  StatusOr<SectionedReader> in =
      SectionedReader::open(path, "sample file", kMagic, kVersion);
  ASSERT_TRUE(in.ok());
  // Reading one field of two leaves bytes over: writer/reader skew.
  const Status st =
      in->section(1, "first", [](PayloadCursor& s) { (void)s.u64(); });
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
  EXPECT_NE(st.to_string().find("first section malformed"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SectionedFile, ChecksumValidForgedCountIsCorruptionNotBadAlloc) {
  // The writer seals a valid checksum over a count no payload can hold:
  // the cursor must refuse it before allocating.
  const std::string path = temp_path("sectioned_forged.bin");
  SectionedWriter out(kMagic, kVersion);
  out.begin_section(1);
  out.put_u64(0x0FFFFFFFFFFFFFF0ULL);
  out.put_u64(1);
  ASSERT_TRUE(out.write(path).ok());
  StatusOr<SectionedReader> in =
      SectionedReader::open(path, "sample file", kMagic, kVersion);
  ASSERT_TRUE(in.ok());
  std::size_t got = 1;
  const Status st = in->section(1, "forged", [&](PayloadCursor& s) {
    got = s.indices().size();
  });
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
  EXPECT_EQ(got, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vmap
