// Append-only write-ahead journal of accepted responses — the
// durability backbone of the crowdevald service. Every accepted RESP
// is appended (and visible to a re-opening process even after SIGKILL,
// see binary_io.h) before it is acknowledged; recovery replays the
// journal on top of the latest snapshot.
//
// On-disk layout (all integers little-endian):
//
//   header (32 bytes):
//     u32 magic 'CRWJ'   u32 version
//     u32 num_workers    u32 num_tasks    u32 arity   u32 reserved
//     u64 base_seq       -- seq already covered by records *before*
//                           this file: the first record has
//                           seq == base_seq + 1 (compaction rewrites
//                           the file with a fresh base_seq).
//
//   record (24 bytes):
//     u32 crc32(payload)
//     payload: u64 seq   u32 worker   u32 task   u32 value
//
// A torn tail (partial record from a crash mid-append) or a corrupted
// record fails its length/CRC/seq check; Open() stops there, truncates
// the file back to the last valid record, and reports how many bytes
// were dropped. Everything before the tear is kept.
//
// A running process never leaves a tear behind: a failed Append
// truncates the file back to its last whole record, and a failed Sync
// back to the last successful Sync, before it returns the error.

#ifndef CROWD_SERVER_JOURNAL_H_
#define CROWD_SERVER_JOURNAL_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/response_matrix.h"
#include "server/binary_io.h"
#include "util/result.h"

namespace crowd::server {

/// \brief Static journal metadata, fixing the response universe.
struct JournalHeader {
  uint32_t num_workers = 0;
  uint32_t num_tasks = 0;
  uint32_t arity = 2;
  /// Sequence number already durable before this file's records.
  uint64_t base_seq = 0;
};

/// \brief One accepted response. `seq` numbers responses 1, 2, ...
/// across the whole journal history (snapshots record the prefix they
/// cover by this number).
struct JournalRecord {
  uint64_t seq = 0;
  data::WorkerId worker = 0;
  data::TaskId task = 0;
  data::Response value = 0;
};

struct JournalRecovered;

/// \brief Outcome of replaying one journal image from memory.
struct JournalReplay {
  JournalHeader header;
  /// Valid records in append order, seq strictly ascending from
  /// header.base_seq + 1.
  std::vector<JournalRecord> records;
  /// Bytes covered by the header plus every valid record; anything
  /// past this offset is a torn or corrupt tail.
  uint64_t valid_bytes = 0;
};

/// \brief Parses a journal image: validated header, then records until
/// the first length/CRC/seq violation (the torn tail). A pure function
/// of the bytes — no filesystem access — so recovery logic is
/// fuzzable and testable in memory. `context` names the byte source
/// in error messages.
Result<JournalReplay> ReplayJournalBytes(const uint8_t* data, size_t size,
                                         const std::string& context);

/// \brief Append-only journal file handle.
class Journal {
 public:
  /// Record wire size: crc + (seq, worker, task, value).
  static constexpr size_t kRecordBytes = 24;
  static constexpr size_t kHeaderBytes = 32;

  Journal(Journal&&) = default;
  Journal& operator=(Journal&&) = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Creates (or truncates) a journal with the given header. The new
  /// file is written durably (fsync of file and directory).
  static Result<Journal> Create(const std::string& path,
                                const JournalHeader& header);

  /// Opens an existing journal, validating every record and truncating
  /// any torn tail in place. Fails with IoError on a missing file or a
  /// corrupt header.
  static Result<JournalRecovered> Open(const std::string& path);

  /// Appends `records` with one write(2). Their seqs must run
  /// `next_seq()`, `next_seq() + 1`, ...; a gap anywhere fails with
  /// Internal before a byte is written. A failed write truncates the
  /// file back to its last whole record and leaves `next_seq()` as it
  /// was, so no torn bytes stay in front of a later append.
  Status Append(std::span<const JournalRecord> records);
  /// Appends one record: a span of one.
  Status Append(const JournalRecord& record) {
    return Append(std::span<const JournalRecord>(&record, 1));
  }

  /// fsync(2) — required only for durability against power loss;
  /// process crashes (SIGKILL) never lose an acknowledged append. A
  /// failed sync truncates the file back to where the last successful
  /// Sync (or Create/Open) left it and rewinds `next_seq()`: the
  /// records after that point may not be on stable storage, and a
  /// caller that syncs before acknowledging has acked none of them.
  Status Sync();

  const JournalHeader& header() const { return header_; }
  /// Sequence number the next Append must carry.
  uint64_t next_seq() const { return last_seq_ + 1; }
  /// Records in this file (excludes those compacted into a snapshot).
  uint64_t record_count() const {
    return last_seq_ - header_.base_seq;
  }
  /// Current file size in bytes.
  uint64_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return file_.path(); }

 private:
  Journal(File file, JournalHeader header, uint64_t last_seq,
          uint64_t file_bytes)
      : file_(std::move(file)),
        header_(header),
        last_seq_(last_seq),
        file_bytes_(file_bytes),
        synced_seq_(last_seq),
        synced_bytes_(file_bytes) {}

  /// Truncates the file back to `bytes` (ending at record `seq`) after
  /// `cause` failed, and returns `cause`, noting a failed truncation.
  Status RollBack(uint64_t seq, uint64_t bytes, const Status& cause);

  File file_;
  JournalHeader header_;
  uint64_t last_seq_ = 0;
  uint64_t file_bytes_ = 0;
  /// Where the last successful Sync (or Create/Open) left the file.
  uint64_t synced_seq_ = 0;
  uint64_t synced_bytes_ = 0;
  /// Encoded records of one Append, kept to reuse its capacity.
  std::vector<uint8_t> buffer_;
};

/// Serialized header / record images exactly as written to disk.
/// Shared by Journal::Create/Append, the recovery replay, and the
/// fuzz harnesses' round-trip checks. A record is encoded in place,
/// with no heap allocation; Append copies each image into its reused
/// buffer under the service lock.
std::vector<uint8_t> EncodeJournalHeader(const JournalHeader& header);
std::array<uint8_t, Journal::kRecordBytes> EncodeJournalRecord(
    const JournalRecord& record);

/// \brief Result of Journal::Open on an existing file.
struct JournalRecovered {
  Journal journal;
  JournalHeader header;
  /// Valid records, in append order, seq strictly ascending.
  std::vector<JournalRecord> records;
  /// Bytes of torn/corrupt tail discarded (0 on a clean file).
  uint64_t truncated_bytes = 0;
};

}  // namespace crowd::server

#endif  // CROWD_SERVER_JOURNAL_H_
