#include "util/sectioned_file.hpp"

#include <cstring>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/hash.hpp"

namespace vmap {

namespace {
constexpr std::size_t kWord = sizeof(std::uint64_t);
constexpr std::size_t kSectionHeaderBytes = 3 * kWord;
}  // namespace

SectionedWriter::SectionedWriter(std::uint64_t magic, std::uint64_t version) {
  put_u64(magic);
  put_u64(version);
}

void SectionedWriter::begin_section(std::uint64_t tag) {
  seal();
  open_section_ = image_.size();
  put_u64(tag);
  put_u64(0);  // payload bytes and checksum: filled in by seal()
  put_u64(0);
}

void SectionedWriter::put_u64(std::uint64_t v) { put_bytes(&v, sizeof(v)); }

void SectionedWriter::put_f64(double v) { put_bytes(&v, sizeof(v)); }

void SectionedWriter::put_bytes(const void* data, std::size_t size) {
  image_.append(static_cast<const char*>(data), size);
}

void SectionedWriter::put_string(const std::string& s) {
  put_u64(s.size());
  put_bytes(s.data(), s.size());
}

void SectionedWriter::put_indices(const std::vector<std::size_t>& v) {
  put_u64(v.size());
  for (std::size_t x : v) put_u64(x);
}

void SectionedWriter::seal() {
  if (open_section_ == 0) return;
  const std::size_t payload = open_section_ + kSectionHeaderBytes;
  const std::uint64_t fields[] = {
      image_.size() - payload,
      fnv1a64(image_.data() + payload, image_.size() - payload)};
  std::memcpy(image_.data() + open_section_ + kWord, fields, sizeof(fields));
  open_section_ = 0;
}

Status SectionedWriter::write(const std::string& path) {
  seal();
  return write_file_atomic(path, image_);
}

std::uint64_t PayloadCursor::u64() {
  std::uint64_t v = 0;
  bytes(&v, sizeof(v));
  return v;
}

double PayloadCursor::f64() {
  double v = 0.0;
  bytes(&v, sizeof(v));
  return v;
}

std::uint64_t PayloadCursor::count(std::uint64_t element_bytes) {
  const std::uint64_t n = u64();
  if (n <= left_ / element_bytes) return n;
  ok_ = false;
  return 0;
}

std::string PayloadCursor::string() {
  std::string s(count(1), '\0');
  bytes(s.data(), s.size());
  return s;
}

std::vector<std::size_t> PayloadCursor::indices() {
  std::vector<std::size_t> v(count(sizeof(std::uint64_t)));
  for (std::size_t& x : v) x = u64();
  return v;
}

void PayloadCursor::bytes(void* out, std::size_t size) {
  if (!ok_ || size > left_) {
    ok_ = false;
    std::memset(out, 0, size);
    return;
  }
  std::memcpy(out, p_, size);
  p_ += size;
  left_ -= size;
}

SectionedReader::SectionedReader(std::ifstream in, std::uint64_t size,
                                 std::string path, std::string what)
    : in_(std::move(in)),
      size_(size),
      path_(std::move(path)),
      what_(std::move(what)) {}

StatusOr<SectionedReader> SectionedReader::open(const std::string& path,
                                                const std::string& what,
                                                std::uint64_t magic,
                                                std::uint64_t version) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Io("cannot read " + what + ": " + path);
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  SectionedReader reader(std::move(in), size, path, what);
  if (size < 2 * kWord) return reader.corruption("too small to hold a header");
  std::uint64_t header[2] = {0, 0};
  reader.in_.read(reinterpret_cast<char*>(header), sizeof(header));
  if (header[0] != magic) return reader.corruption("bad magic");
  if (header[1] != version) return reader.corruption("version mismatch");
  return reader;
}

std::uint64_t SectionedReader::remaining() {
  return size_ - static_cast<std::uint64_t>(in_.tellg());
}

Status SectionedReader::corruption(const std::string& detail) const {
  return Status::Corruption(what_ + " " + detail + ": " + path_);
}

Status SectionedReader::next(std::uint64_t tag) {
  // Each bound is checked before the read it guards, so a corrupted
  // length field can neither trigger a huge allocation nor a short read.
  const std::uint64_t left = remaining();
  if (left < kSectionHeaderBytes)
    return corruption("truncated before section header");
  std::uint64_t header[3] = {0, 0, 0};
  in_.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in_) return corruption("section header unreadable");
  if (header[0] != tag)
    return corruption("section tag mismatch (got " +
                      std::to_string(header[0]) + ", want " +
                      std::to_string(tag) + ")");
  if (header[1] > left - kSectionHeaderBytes)
    return corruption("section length exceeds file size");
  payload_.resize(header[1]);
  in_.read(payload_.data(), static_cast<std::streamsize>(header[1]));
  if (static_cast<std::uint64_t>(in_.gcount()) != header[1])
    return corruption("section payload truncated");
  if (fnv1a64(payload_.data(), payload_.size()) != header[2])
    return corruption("section checksum mismatch (tag " +
                      std::to_string(tag) + ")");
  return Status::Ok();
}

Status SectionedReader::finish() {
  const std::uint64_t left = remaining();
  if (left != 0)
    return corruption("has trailing garbage (" + std::to_string(left) +
                      " bytes)");
  return Status::Ok();
}

}  // namespace vmap
