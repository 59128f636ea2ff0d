// Unit tests for the bounds-checked ByteReader and the low-level
// little-endian / CRC helpers it builds on (server/binary_io.h). The
// properties pinned here — truncated reads fail with IoError without
// consuming, declared sizes are validated before any copy — are the
// same contract fuzz/fuzz_binary_io.cc checks under random bytes.

#include <cstdint>
#include <vector>

#include "crc32_reference.h"
#include "gtest/gtest.h"
#include "rng/random.h"
#include "server/binary_io.h"

namespace crowd::server {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) {
  return std::vector<uint8_t>(b);
}

TEST(PutGetTest, LittleEndianRoundTrip) {
  std::vector<uint8_t> buf;
  PutU32(&buf, 0x01020304u);
  PutU64(&buf, 0x0102030405060708ull);
  ASSERT_EQ(buf.size(), 12u);
  // Little-endian on disk regardless of host order.
  EXPECT_EQ(buf[0], 0x04u);
  EXPECT_EQ(buf[3], 0x01u);
  EXPECT_EQ(buf[4], 0x08u);
  EXPECT_EQ(buf[11], 0x01u);
  EXPECT_EQ(GetU32(buf.data()), 0x01020304u);
  EXPECT_EQ(GetU64(buf.data() + 4), 0x0102030405060708ull);
}

TEST(Crc32Test, MatchesZlibVector) {
  // zlib.crc32(b"123456789") — the classic check value.
  const char kCheck[] = "123456789";
  EXPECT_EQ(Crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  Random rng(seed);
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(256));
  return bytes;
}

// Every length 0-300 at every start offset 0-16 covers the 8-byte
// body, the byte tail and each alignment of both.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<uint8_t> buf = RandomBytes(300 + 16, 7);
  for (size_t offset = 0; offset <= 16; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                ReferenceCrc32(buf.data() + offset, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

// Snapshot payloads run to megabytes; one 4 MiB buffer pins the long
// run of 8-byte steps.
TEST(Crc32Test, MatchesBitwiseReferenceOnFourMebibytes) {
  const std::vector<uint8_t> buf = RandomBytes(4u << 20, 11);
  EXPECT_EQ(Crc32(buf.data(), buf.size()),
            ReferenceCrc32(buf.data(), buf.size()));
}

TEST(ByteReaderTest, SequentialReadsConsumeInOrder) {
  std::vector<uint8_t> buf;
  PutU32(&buf, 7u);
  PutU64(&buf, 9000000000ull);
  buf.push_back(0xAB);
  ByteReader reader(buf);
  EXPECT_EQ(reader.offset(), 0u);
  EXPECT_EQ(reader.remaining(), buf.size());

  auto u32 = reader.ReadU32();
  ASSERT_TRUE(u32.ok()) << u32.status();
  EXPECT_EQ(*u32, 7u);
  auto u64 = reader.ReadU64();
  ASSERT_TRUE(u64.ok()) << u64.status();
  EXPECT_EQ(*u64, 9000000000ull);
  uint8_t tail = 0;
  ASSERT_TRUE(reader.ReadBytes(&tail, 1).ok());
  EXPECT_EQ(tail, 0xABu);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(reader.offset(), buf.size());
}

TEST(ByteReaderTest, TruncatedReadFailsWithoutConsuming) {
  std::vector<uint8_t> buf = Bytes({1, 2, 3});  // 3 bytes < u32
  ByteReader reader(buf);
  auto u32 = reader.ReadU32();
  EXPECT_TRUE(u32.status().IsIoError()) << u32.status();
  // The failed read left the cursor alone; the bytes are still there.
  EXPECT_EQ(reader.offset(), 0u);
  EXPECT_EQ(reader.remaining(), 3u);
  uint8_t out[3] = {0, 0, 0};
  ASSERT_TRUE(reader.ReadBytes(out, 3).ok());
  EXPECT_EQ(out[2], 3u);
}

TEST(ByteReaderTest, SizeInflatedRequestIsRejectedBeforeCopy) {
  // A parser that believed a hostile length field would ask for far
  // more than remains; the reader must refuse up front.
  std::vector<uint8_t> buf = Bytes({1, 2, 3, 4});
  ByteReader reader(buf);
  std::vector<uint8_t> sink(8, 0xEE);
  Status s = reader.ReadBytes(sink.data(), 1u << 20);
  EXPECT_TRUE(s.IsIoError()) << s;
  EXPECT_EQ(reader.offset(), 0u);
  // The sink was never touched.
  EXPECT_EQ(sink[0], 0xEEu);
  EXPECT_TRUE(reader.ReadSpan(5).status().IsIoError());
  EXPECT_TRUE(reader.Skip(5).IsIoError());
  EXPECT_EQ(reader.remaining(), 4u);
}

TEST(ByteReaderTest, SkipAndSpanAdvanceExactly) {
  std::vector<uint8_t> buf = Bytes({10, 11, 12, 13, 14});
  ByteReader reader(buf);
  ASSERT_TRUE(reader.Skip(2).ok());
  auto span = reader.ReadSpan(2);
  ASSERT_TRUE(span.ok()) << span.status();
  EXPECT_EQ((*span)[0], 12u);
  EXPECT_EQ((*span)[1], 13u);
  EXPECT_EQ(reader.remaining(), 1u);
}

TEST(ByteReaderTest, ZeroLengthOpsOnEmptyInputSucceed) {
  ByteReader reader(nullptr, 0);
  EXPECT_TRUE(reader.Skip(0).ok());
  EXPECT_TRUE(reader.ReadBytes(nullptr, 0).ok());
  EXPECT_TRUE(reader.ReadSpan(0).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_TRUE(reader.ReadU32().status().IsIoError());
}

TEST(ByteReaderTest, ErrorMessageNamesOffsetAndShortfall) {
  std::vector<uint8_t> buf = Bytes({1, 2, 3, 4, 5});
  ByteReader reader(buf);
  ASSERT_TRUE(reader.ReadU32().ok());
  Status s = reader.ReadU32().status();
  ASSERT_TRUE(s.IsIoError());
  EXPECT_NE(s.message().find("offset 4"), std::string::npos) << s;
  EXPECT_NE(s.message().find("have 1"), std::string::npos) << s;
}

}  // namespace
}  // namespace crowd::server
