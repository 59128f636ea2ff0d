#include "server/binary_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/string_util.h"

namespace crowd::server {

namespace {

Status Errno(const char* op, const std::string& path) {
  return Status::IoError(
      StrFormat("%s(%s): %s", op, path.c_str(), std::strerror(errno)));
}

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320, built
// at compile time. kCrcTables[0] is the byte-at-a-time table;
// kCrcTables[k][b] is kCrcTables[0][b] carried through k more zero
// bytes, so the eight lookups of one 8-byte word are independent and
// XOR together into the CRC after the whole word.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    tables[0][b] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const CrcTables& t = kCrcTables;
  uint32_t crc = 0xFFFFFFFFu;
  // Eight bytes per step: the first little-endian word absorbs the
  // running CRC, then each byte indexes the table for its distance
  // from the end of the word.
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = GetU32(p) ^ crc;
    const uint32_t hi = GetU32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->resize(out->size() + 4);
  PutU32(out->data() + out->size() - 4, v);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  out->resize(out->size() + 8);
  PutU64(out->data() + out->size() - 8, v);
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

Status ByteReader::NeedBytes(size_t size) const {
  if (size > remaining()) {
    return Status::IoError(StrFormat(
        "truncated input: need %zu byte(s) at offset %zu, have %zu",
        size, offset_, remaining()));
  }
  return Status::OK();
}

Result<uint32_t> ByteReader::ReadU32() {
  CROWD_RETURN_NOT_OK(NeedBytes(4));
  uint32_t v = GetU32(data_ + offset_);
  offset_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  CROWD_RETURN_NOT_OK(NeedBytes(8));
  uint64_t v = GetU64(data_ + offset_);
  offset_ += 8;
  return v;
}

Status ByteReader::ReadBytes(void* out, size_t size) {
  CROWD_RETURN_NOT_OK(NeedBytes(size));
  if (size > 0) std::memcpy(out, data_ + offset_, size);
  offset_ += size;
  return Status::OK();
}

Result<const uint8_t*> ByteReader::ReadSpan(size_t size) {
  CROWD_RETURN_NOT_OK(NeedBytes(size));
  const uint8_t* p = data_ + offset_;
  offset_ += size;
  return p;
}

Status ByteReader::Skip(size_t size) {
  CROWD_RETURN_NOT_OK(NeedBytes(size));
  offset_ += size;
  return Status::OK();
}

File::~File() { Close(); }

File::File(File&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

Result<File> File::OpenAppend(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) return Errno("open", path);
  return File(fd, path);
}

Result<File> File::OpenRead(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  return File(fd, path);
}

Result<File> File::Create(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return Errno("open", path);
  return File(fd, path);
}

Status File::WriteAll(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path_);
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<size_t> File::ReadAt(uint64_t offset, void* out, size_t size) {
  uint8_t* p = static_cast<uint8_t*>(out);
  size_t total = 0;
  while (total < size) {
    ssize_t n = ::pread(fd_, p + total, size - total,
                        static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread", path_);
    }
    if (n == 0) break;  // EOF
    total += static_cast<size_t>(n);
  }
  return total;
}

Result<uint64_t> File::Size() const {
  off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return Errno("lseek", path_);
  return static_cast<uint64_t>(end);
}

Status File::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Errno("ftruncate", path_);
  }
  if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    return Errno("lseek", path_);
  }
  return Status::OK();
}

Status File::Sync() {
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  return Status::OK();
}

void File::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  CROWD_ASSIGN_OR_RETURN(File file, File::OpenRead(path));
  CROWD_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  CROWD_ASSIGN_OR_RETURN(size_t read,
                         file.ReadAt(0, bytes.data(), bytes.size()));
  bytes.resize(read);
  return bytes;
}

Status SyncDirectoryOf(const std::string& path) {
  const std::string dir = [&path] {
    size_t slash = path.find_last_of('/');
    if (slash == std::string::npos) return std::string(".");
    if (slash == 0) return std::string("/");
    return path.substr(0, slash);
  }();
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open", dir);
  Status st = Status::OK();
  if (::fsync(fd) != 0) st = Errno("fsync", dir);
  ::close(fd);
  return st;
}

}  // namespace crowd::server
