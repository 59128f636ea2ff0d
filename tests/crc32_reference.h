// The bitwise CRC-32 (reflected polynomial 0xEDB88320, the zlib/PNG
// variant) that server::Crc32's slicing-by-8 tables must reproduce
// byte for byte: one shift per input bit, no tables. Shared by the
// unit test and the fuzz harness as their oracle; it depends on
// nothing, so the gtest-free fuzz build can include it too.

#ifndef CROWD_TESTS_CRC32_REFERENCE_H_
#define CROWD_TESTS_CRC32_REFERENCE_H_

#include <cstddef>
#include <cstdint>

namespace crowd::server {

inline uint32_t ReferenceCrc32(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
  }
  return ~crc;
}

}  // namespace crowd::server

#endif  // CROWD_TESTS_CRC32_REFERENCE_H_
