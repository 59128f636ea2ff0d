// Low-level helpers shared by the durability layer (journal +
// snapshot): table-driven CRC-32 checksums, little-endian field
// encoding, and a thin RAII wrapper over a POSIX file descriptor.
//
// All on-disk integers are little-endian regardless of host order so
// journal/snapshot files survive a machine change. Writes go through
// write(2) (not stdio), so an accepted append is visible to a reopening
// process even after SIGKILL — only power loss needs the explicit
// Sync() (fsync) path.

#ifndef CROWD_SERVER_BINARY_IO_H_
#define CROWD_SERVER_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace crowd::server {

/// \brief CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) of a
/// byte range. Used to detect torn or corrupted journal records and
/// snapshot payloads. Table-driven (slicing-by-8, tables built at
/// compile time): recovery checksums a multi-megabyte snapshot payload
/// and compaction does so under the service lock, so the byte rate
/// matters as much as the 20-byte journal records do.
uint32_t Crc32(const void* data, size_t size);

/// Appends `v` to `out` in little-endian byte order.
void PutU32(std::vector<uint8_t>* out, uint32_t v);
void PutU64(std::vector<uint8_t>* out, uint64_t v);

/// Writes `v` at `p` in little-endian byte order (caller guarantees
/// bounds).
void PutU32(uint8_t* p, uint32_t v);
void PutU64(uint8_t* p, uint64_t v);

/// Reads a little-endian integer at `p` (caller guarantees bounds).
uint32_t GetU32(const uint8_t* p);
uint64_t GetU64(const uint8_t* p);

/// \brief Bounds-checked sequential reader over a byte span.
///
/// Every parser that consumes untrusted bytes (snapshot load, journal
/// replay) must go through this cursor instead of raw pointer
/// arithmetic: each read validates the declared size against the
/// bytes actually remaining and fails with a Status instead of
/// over-reading. A failed read leaves the cursor where it was. The
/// reader does not own the bytes; the span must outlive it.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - offset_; }
  /// Bytes consumed so far.
  size_t offset() const { return offset_; }

  /// Little-endian fixed-width reads.
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();

  /// Copies exactly `size` bytes into `out`, or fails without
  /// consuming anything when fewer remain.
  Status ReadBytes(void* out, size_t size);

  /// A borrowed view of the next `size` bytes (valid while the
  /// underlying span lives), or IoError when fewer remain.
  Result<const uint8_t*> ReadSpan(size_t size);

  /// Advances past `size` bytes, or fails when fewer remain.
  Status Skip(size_t size);

 private:
  Status NeedBytes(size_t size) const;

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t offset_ = 0;
};

/// \brief RAII file descriptor with Status-returning I/O helpers.
class File {
 public:
  File() = default;
  ~File();

  File(const File&) = delete;
  File& operator=(const File&) = delete;
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;

  /// Opens for reading and appending; creates when missing.
  static Result<File> OpenAppend(const std::string& path);
  /// Opens read-only; fails with IoError when missing.
  static Result<File> OpenRead(const std::string& path);
  /// Creates or truncates for writing.
  static Result<File> Create(const std::string& path);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Writes the whole buffer (looping over short writes).
  Status WriteAll(const void* data, size_t size);
  /// Reads exactly `size` bytes at absolute `offset` into `out`;
  /// returns the number of bytes actually read (short at EOF).
  Result<size_t> ReadAt(uint64_t offset, void* out, size_t size);
  /// Current file size in bytes.
  Result<uint64_t> Size() const;
  /// Truncates the file to `size` bytes and moves the file offset
  /// there, so the next write of a non-append file lands at the new
  /// end rather than past a hole.
  Status Truncate(uint64_t size);
  /// fsync(2): force written data to stable storage.
  Status Sync();
  /// Closes the descriptor (also done by the destructor).
  void Close();

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// \brief Reads a whole file into a byte buffer.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// \brief fsync the directory containing `path`, making a just-renamed
/// file durable against power loss.
Status SyncDirectoryOf(const std::string& path);

}  // namespace crowd::server

#endif  // CROWD_SERVER_BINARY_IO_H_
