// Versioned binary snapshots of the streaming evaluator's durable
// state. A snapshot is a point-in-time image of the ResponseMatrix
// (the overlap index and assessment caches are derived data and are
// rebuilt on load) plus the journal sequence number it covers, so
// recovery is: load the newest valid snapshot, then replay the journal
// records with seq greater than `applied_seq`.
//
// On-disk layout of `snapshot-<seq, 20 digits>.crws` (little-endian):
//
//   u32 magic 'CRWS'   u32 version
//   u32 num_workers    u32 num_tasks    u32 arity   u32 reserved
//   u64 applied_seq    u64 payload_bytes
//   u32 crc32(payload)
//   payload: ResponseMatrix::cells(), num_workers * num_tasks int16
//            cells, row-major (-1 = missing, else in [0, arity))
//
// Snapshots are written to a temp file, fsynced, then renamed into
// place, so a crash mid-write never clobbers the previous snapshot.

#ifndef CROWD_SERVER_SNAPSHOT_H_
#define CROWD_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/response_matrix.h"
#include "util/result.h"

namespace crowd::server {

/// \brief Decoded snapshot contents.
struct SnapshotData {
  /// Journal seq covered: replay records with seq > applied_seq.
  uint64_t applied_seq = 0;
  /// The response matrix the snapshot captured.
  data::ResponseMatrix matrix;
};

/// Path of the snapshot covering `seq` inside `dir`.
std::string SnapshotPath(const std::string& dir, uint64_t seq);

/// \brief Serializes `responses` into the on-disk snapshot format
/// (header + CRC + payload) without touching the filesystem. The
/// payload is ResponseMatrix::cells() in little-endian order, so
/// decoding and re-encoding reproduce the input bytes exactly.
std::vector<uint8_t> EncodeSnapshot(const data::ResponseMatrix& responses,
                                    uint64_t applied_seq);

/// \brief Parses and validates one snapshot image from memory.
///
/// Every declared size (dimensions, payload length) is checked against
/// the bytes actually present before anything is allocated or copied,
/// so arbitrary input can at worst produce an IoError — never an
/// over-read or an attacker-chosen allocation. The payload decodes
/// straight into the matrix (ResponseMatrix::FromCells checks each
/// cell), so success means a valid matrix. `context` names the source
/// (e.g. the file path) in error messages.
Result<SnapshotData> DecodeSnapshot(const uint8_t* data, size_t size,
                                    const std::string& context);

/// \brief Writes a durable snapshot of `responses` covering
/// `applied_seq` into `dir`; returns the file's byte size.
Result<uint64_t> WriteSnapshot(const std::string& dir,
                               const data::ResponseMatrix& responses,
                               uint64_t applied_seq);

/// \brief Loads and validates one snapshot file.
Result<SnapshotData> LoadSnapshot(const std::string& path);

/// Snapshot seqs present in `dir`, descending (newest first). Files
/// are identified by name only; validation happens in LoadSnapshot.
Result<std::vector<uint64_t>> ListSnapshotSeqs(const std::string& dir);

/// Deletes snapshots older than `keep_seq` (used after compaction; the
/// newest snapshot plus anything at/after `keep_seq` survive).
Status RemoveSnapshotsBefore(const std::string& dir, uint64_t keep_seq);

}  // namespace crowd::server

#endif  // CROWD_SERVER_SNAPSHOT_H_
