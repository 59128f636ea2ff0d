// Fuzz harness for snapshot image decoding (server/snapshot.{h,cc}).
//
// Contract under arbitrary bytes:
//  - DecodeSnapshot returns a Result: a valid ResponseMatrix or a
//    non-OK Status. Declared dimensions and payload lengths are
//    checked against the bytes present before any allocation, so no
//    input can cause an over-read or an attacker-chosen allocation
//    (the pre-hardening decoder multiplied two u32 dimensions into a
//    wrapping u64 — see fuzz/corpus/fuzz_snapshot/overflow-dims).
//  - The payload decodes straight into the matrix, so decode-OK means
//    every cell is the missing sentinel or in [0, arity), and the
//    matrix's dimensions agree with its cell count.
//  - It accepts exactly what the two-pass reference decoder
//    (tests/snapshot_reference.h) accepts, with equal cells.
//  - Round-trip identity: re-encoding the decoded matrix under the
//    same applied_seq reproduces the input byte for byte.

#include <cstdint>
#include <cstring>
#include <vector>

#include "../tests/snapshot_reference.h"
#include "fuzz_util.h"
#include "server/snapshot.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  auto decoded = crowd::server::DecodeSnapshot(data, size, "fuzz");
  auto reference = crowd::server::ReferenceDecodeToMatrix(data, size);
  FUZZ_ASSERT(decoded.ok() == reference.ok());
  if (!decoded.ok()) {
    FUZZ_ASSERT(decoded.status().IsIoError());
    return 0;
  }

  const crowd::data::ResponseMatrix& matrix = decoded->matrix;
  FUZZ_ASSERT(matrix.cells().size() ==
              matrix.num_workers() * matrix.num_tasks());
  FUZZ_ASSERT(matrix.num_workers() == reference->num_workers());
  FUZZ_ASSERT(matrix.num_tasks() == reference->num_tasks());
  FUZZ_ASSERT(matrix.arity() == reference->arity());
  FUZZ_ASSERT(matrix.cells() == reference->cells());
  FUZZ_ASSERT(matrix.TotalResponses() == reference->TotalResponses());

  std::vector<uint8_t> encoded =
      crowd::server::EncodeSnapshot(matrix, decoded->applied_seq);
  FUZZ_ASSERT(encoded.size() == size);
  FUZZ_ASSERT(size == 0 || std::memcmp(encoded.data(), data, size) == 0);
  return 0;
}
