// Fuzz harness for the low-level byte primitives
// (server/binary_io.{h,cc}): the bounds-checked ByteReader cursor,
// the little-endian put/get pairs, and Crc32.
//
// The input drives an op-interpreter over a ByteReader on the input
// itself: each consumed byte selects the next read operation and its
// size. Contract:
//  - No operation ever reads outside [data, data + size) (enforced by
//    ASan/MSan in sanitizer builds).
//  - offset() + remaining() == size at all times.
//  - A failed operation consumes nothing.
//  - PutU32/GetU32 and PutU64/GetU64 are inverses; Crc32 equals the
//    bitwise reference CRC on every input and covers every byte.

#include <cstdint>
#include <vector>

#include "../tests/crc32_reference.h"
#include "fuzz_util.h"
#include "server/binary_io.h"

namespace {

using crowd::server::ByteReader;

void CheckInvariants(const ByteReader& reader, size_t size) {
  FUZZ_ASSERT(reader.offset() <= size);
  FUZZ_ASSERT(reader.offset() + reader.remaining() == size);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  CheckInvariants(reader, size);

  uint8_t op = 0;
  while (reader.ReadBytes(&op, 1).ok()) {
    CheckInvariants(reader, size);
    const size_t before = reader.offset();
    bool ok = false;
    switch (op & 0x3) {
      case 0: {
        auto v = reader.ReadU32();
        ok = v.ok();
        if (ok) {
          // The wire codec must reproduce what the reader saw.
          std::vector<uint8_t> buf;
          crowd::server::PutU32(&buf, *v);
          FUZZ_ASSERT(buf.size() == 4);
          FUZZ_ASSERT(crowd::server::GetU32(buf.data()) == *v);
        }
        break;
      }
      case 1: {
        auto v = reader.ReadU64();
        ok = v.ok();
        if (ok) {
          std::vector<uint8_t> buf;
          crowd::server::PutU64(&buf, *v);
          FUZZ_ASSERT(buf.size() == 8);
          FUZZ_ASSERT(crowd::server::GetU64(buf.data()) == *v);
        }
        break;
      }
      case 2: {
        const size_t want = op >> 2;
        std::vector<uint8_t> sink(want);
        ok = reader.ReadBytes(sink.data(), want).ok();
        if (ok) {
          // Copy and borrow views of the same range must agree, so
          // re-check through ReadSpan on a fresh reader positioned at
          // the same offset.
          ByteReader other(data, size);
          FUZZ_ASSERT(other.Skip(before).ok());
          auto span = other.ReadSpan(want);
          FUZZ_ASSERT(span.ok());
          for (size_t i = 0; i < want; ++i) {
            FUZZ_ASSERT((*span)[i] == sink[i]);
          }
        }
        break;
      }
      case 3:
        ok = reader.Skip(op >> 2).ok();
        break;
    }
    CheckInvariants(reader, size);
    if (!ok) {
      // Failed reads must not consume input.
      FUZZ_ASSERT(reader.offset() == before);
    }
  }

  // The table-driven CRC matches the bitwise reference and covers
  // every byte: flipping the last bit of a non-empty input changes it.
  const uint32_t crc = crowd::server::Crc32(data, size);
  FUZZ_ASSERT(crc == crowd::server::ReferenceCrc32(data, size));
  if (size > 0) {
    std::vector<uint8_t> copy(data, data + size);
    copy.back() ^= 1u;
    FUZZ_ASSERT(crowd::server::Crc32(copy.data(), copy.size()) != crc);
  }
  return 0;
}
