// The snapshot codec as it was before the payload decoded straight
// into the ResponseMatrix: a per-cell encoder (one Get and two
// push_backs per cell, then a copy behind the header), and a decoder
// that validates the payload into its own int16 cell vector, which a
// second pass copies into a matrix through ResponseMatrix::Set. The
// checksum is the bitwise reference CRC. server::EncodeSnapshot and
// server::DecodeSnapshot must reproduce it byte for byte and accept
// exactly what it accepts. Shared by the unit test and the fuzz
// harness as their oracle, so it depends on nothing gtest provides.

#ifndef CROWD_TESTS_SNAPSHOT_REFERENCE_H_
#define CROWD_TESTS_SNAPSHOT_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "crc32_reference.h"
#include "data/response_matrix.h"
#include "server/binary_io.h"
#include "util/result.h"
#include "util/string_util.h"

namespace crowd::server {

/// The reference decoder's output: header fields plus the raw cells.
struct ReferenceSnapshotData {
  uint32_t num_workers = 0;
  uint32_t num_tasks = 0;
  uint32_t arity = 2;
  uint64_t applied_seq = 0;
  /// Dense cells, row-major, -1 = missing.
  std::vector<int16_t> cells;
};

inline constexpr uint32_t kReferenceSnapshotMagic = 0x53575243u;
inline constexpr uint32_t kReferenceSnapshotVersion = 1;
inline constexpr size_t kReferenceSnapshotHeaderBytes = 44;

inline std::vector<uint8_t> ReferenceEncodeSnapshot(
    const data::ResponseMatrix& responses, uint64_t applied_seq) {
  const size_t nw = responses.num_workers();
  const size_t nt = responses.num_tasks();
  std::vector<uint8_t> payload;
  payload.reserve(nw * nt * 2);
  for (data::WorkerId w = 0; w < nw; ++w) {
    for (data::TaskId t = 0; t < nt; ++t) {
      auto r = responses.Get(w, t);
      int16_t cell =
          r.has_value() ? static_cast<int16_t>(*r) : int16_t{-1};
      uint16_t u = static_cast<uint16_t>(cell);
      payload.push_back(static_cast<uint8_t>(u));
      payload.push_back(static_cast<uint8_t>(u >> 8));
    }
  }

  std::vector<uint8_t> bytes;
  bytes.reserve(kReferenceSnapshotHeaderBytes + payload.size());
  PutU32(&bytes, kReferenceSnapshotMagic);
  PutU32(&bytes, kReferenceSnapshotVersion);
  PutU32(&bytes, static_cast<uint32_t>(nw));
  PutU32(&bytes, static_cast<uint32_t>(nt));
  PutU32(&bytes, static_cast<uint32_t>(responses.arity()));
  PutU32(&bytes, 0);  // reserved, zero in version 1
  PutU64(&bytes, applied_seq);
  PutU64(&bytes, payload.size());
  PutU32(&bytes, ReferenceCrc32(payload.data(), payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

inline Result<ReferenceSnapshotData> ReferenceDecodeSnapshot(
    const uint8_t* data, size_t size, const std::string& context) {
  auto corrupt = [&context](const char* why) {
    return Status::IoError("snapshot " + context + ": " + why);
  };
  ByteReader reader(data, size);
  if (size < kReferenceSnapshotHeaderBytes) {
    return corrupt("missing or corrupt header");
  }
  CROWD_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kReferenceSnapshotMagic) {
    return corrupt("missing or corrupt header");
  }
  CROWD_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kReferenceSnapshotVersion) {
    return Status::IoError(StrFormat("snapshot %s: unsupported version %u",
                                     context.c_str(), version));
  }
  ReferenceSnapshotData out;
  CROWD_ASSIGN_OR_RETURN(out.num_workers, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(out.num_tasks, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(out.arity, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(uint32_t reserved, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(out.applied_seq, reader.ReadU64());
  CROWD_ASSIGN_OR_RETURN(uint64_t payload_bytes, reader.ReadU64());
  CROWD_ASSIGN_OR_RETURN(uint32_t crc, reader.ReadU32());
  if (reserved != 0) return corrupt("reserved header field is not zero");
  if (out.arity < 2 || out.arity > 32767) {
    return corrupt("arity outside [2, 32767]");
  }
  if (payload_bytes != reader.remaining()) {
    return corrupt("truncated payload");
  }
  const uint64_t cell_count = payload_bytes / 2;
  if (payload_bytes % 2 != 0 ||
      static_cast<uint64_t>(out.num_workers) * out.num_tasks !=
          cell_count) {
    return corrupt("truncated payload");
  }
  CROWD_ASSIGN_OR_RETURN(const uint8_t* payload,
                         reader.ReadSpan(static_cast<size_t>(payload_bytes)));
  if (ReferenceCrc32(payload, static_cast<size_t>(payload_bytes)) != crc) {
    return corrupt("checksum mismatch");
  }
  out.cells.resize(static_cast<size_t>(cell_count));
  for (size_t i = 0; i < out.cells.size(); ++i) {
    uint16_t u = static_cast<uint16_t>(
        payload[2 * i] | (payload[2 * i + 1] << 8));
    auto v = static_cast<int16_t>(u);
    if (v < -1 || (v >= 0 && static_cast<uint32_t>(v) >= out.arity)) {
      return corrupt("cell value outside [0, arity) and not missing");
    }
    out.cells[i] = v;
  }
  return out;
}

inline Result<data::ResponseMatrix> ReferenceToMatrix(
    const ReferenceSnapshotData& snapshot) {
  if (snapshot.arity < 2 || snapshot.arity > 32767) {
    return Status::Invalid(
        StrFormat("snapshot arity %u outside [2, 32767]", snapshot.arity));
  }
  data::ResponseMatrix matrix(snapshot.num_workers, snapshot.num_tasks,
                              static_cast<int>(snapshot.arity));
  if (snapshot.cells.size() !=
      static_cast<size_t>(snapshot.num_workers) * snapshot.num_tasks) {
    return Status::Internal("snapshot cell count mismatch");
  }
  for (data::WorkerId w = 0; w < snapshot.num_workers; ++w) {
    for (data::TaskId t = 0; t < snapshot.num_tasks; ++t) {
      int16_t v = snapshot.cells[w * snapshot.num_tasks + t];
      if (v == -1) continue;  // missing sentinel
      if (v < -1) {
        return Status::Invalid(
            StrFormat("snapshot cell (%zu, %zu) holds invalid value %d",
                      static_cast<size_t>(w), static_cast<size_t>(t),
                      static_cast<int>(v)));
      }
      CROWD_RETURN_NOT_OK(matrix.Set(w, t, v));
    }
  }
  return matrix;
}

/// The reference's whole load path: decode, then rebuild the matrix.
inline Result<data::ResponseMatrix> ReferenceDecodeToMatrix(
    const uint8_t* data, size_t size) {
  CROWD_ASSIGN_OR_RETURN(ReferenceSnapshotData snapshot,
                         ReferenceDecodeSnapshot(data, size, "reference"));
  return ReferenceToMatrix(snapshot);
}

}  // namespace crowd::server

#endif  // CROWD_TESTS_SNAPSHOT_REFERENCE_H_
