#pragma once
// The one checksummed binary file format: the dataset cache and the fleet
// checkpoint are both sectioned files.
//
//   [u64 magic][u64 version]
//   then, per section in a fixed order:
//   [u64 tag][u64 payload bytes][u64 fnv1a64(payload)][payload]
//
// Integers are host-order 64-bit words. SectionedWriter builds the whole
// image in memory, seals each section's length and checksum, and writes
// it with write_file_atomic (tmp, fsync, rename, directory fsync), so a
// crash leaves the previous file or the new one, never a torn one.
//
// SectionedReader checks the magic and version, then each section's tag,
// length (against the bytes left in the file) and checksum, and rejects
// bytes after the last section. A payload is read through a
// PayloadCursor. FNV-1a does not stop a forged count, so the cursor
// bounds every stored count by the payload bytes left before anything is
// allocated, and a section is accepted only when its payload was read to
// the last byte: extra or missing bytes mean writer/reader skew. Every
// integrity failure is kCorruption, never an overflowed shape,
// std::bad_alloc or std::length_error.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace vmap {

class SectionedWriter {
 public:
  SectionedWriter(std::uint64_t magic, std::uint64_t version);

  /// Starts the next section; the put_* calls until the next
  /// begin_section() or write() fill its payload.
  void begin_section(std::uint64_t tag);
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  void put_bytes(const void* data, std::size_t size);
  /// u64 length, then the bytes.
  void put_string(const std::string& s);
  /// u64 count, then one u64 per index.
  void put_indices(const std::vector<std::size_t>& v);

  /// Seals the last section and writes the image atomically to `path`.
  Status write(const std::string& path);

 private:
  void seal();

  std::string image_;
  std::size_t open_section_ = 0;  ///< header offset; 0 = none open
};

/// Reads one section's payload. Reads past the end, and counts that do
/// not fit in the bytes left, fail the cursor and yield zeros.
class PayloadCursor {
 public:
  PayloadCursor(const char* data, std::size_t size) : p_(data), left_(size) {}

  std::uint64_t u64();
  double f64();
  /// An element count, failing unless that many `element_bytes`-byte
  /// elements fit in the bytes left.
  std::uint64_t count(std::uint64_t element_bytes);
  /// A put_string() value.
  std::string string();
  /// A put_indices() value.
  std::vector<std::size_t> indices();
  void bytes(void* out, std::size_t size);
  std::uint64_t bytes_left() const { return left_; }

  /// Marks the payload malformed (values that disagree with each other).
  void fail() { ok_ = false; }
  bool ok() const { return ok_; }
  /// No read failed and every byte was read.
  bool consumed() const { return ok_ && left_ == 0; }

 private:
  const char* p_;
  std::size_t left_;
  bool ok_ = true;
};

class SectionedReader {
 public:
  /// Opens `path` and checks its magic and version. `what` names the file
  /// kind in error messages ("dataset cache"). kIo when the file cannot be
  /// read, kCorruption otherwise.
  static StatusOr<SectionedReader> open(const std::string& path,
                                        const std::string& what,
                                        std::uint64_t magic,
                                        std::uint64_t version);

  /// Verifies the next section (tag, length, checksum), runs
  /// `parse(PayloadCursor&)` over its payload, and requires the cursor to
  /// end consumed. `name` names the section in error messages.
  template <typename Parse>
  Status section(std::uint64_t tag, const std::string& name, Parse&& parse) {
    const Status st = next(tag);
    if (!st.ok()) return st;
    PayloadCursor cursor(payload_.data(), payload_.size());
    parse(cursor);
    if (!cursor.consumed()) return corruption(name + " section malformed");
    return Status::Ok();
  }

  /// kCorruption when bytes follow the last section read.
  Status finish();

 private:
  SectionedReader(std::ifstream in, std::uint64_t size, std::string path,
                  std::string what);
  /// Reads and verifies the next section into payload_.
  Status next(std::uint64_t tag);
  std::uint64_t remaining();
  Status corruption(const std::string& detail) const;

  std::ifstream in_;
  std::uint64_t size_ = 0;
  std::string path_;
  std::string what_;
  std::string payload_;
};

}  // namespace vmap
