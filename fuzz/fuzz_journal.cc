// Fuzz harness for journal record decode and the full recovery replay
// (server/journal.{h,cc}).
//
// Contract under arbitrary bytes:
//  - ReplayJournalBytes returns a Result: a decoded header plus the
//    valid record prefix, or a non-OK Status. Never a crash, OOB read,
//    or attacker-sized allocation.
//  - On success: valid_bytes covers exactly the header plus the
//    accepted records and never exceeds the input; record seqs ascend
//    contiguously from base_seq + 1.
//  - Round-trip identity: re-encoding the decoded header and records
//    reproduces the accepted byte prefix bit-for-bit.

#include <cstdint>
#include <cstring>
#include <vector>

#include "fuzz_util.h"
#include "server/journal.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  auto replay = crowd::server::ReplayJournalBytes(data, size, "fuzz");
  if (!replay.ok()) {
    FUZZ_ASSERT(!replay.status().ok());
    return 0;
  }

  const auto& out = *replay;
  FUZZ_ASSERT(out.valid_bytes <= size);
  FUZZ_ASSERT(out.valid_bytes ==
              crowd::server::Journal::kHeaderBytes +
                  out.records.size() * crowd::server::Journal::kRecordBytes);
  uint64_t expected_seq = out.header.base_seq;
  for (const auto& record : out.records) {
    FUZZ_ASSERT(record.seq == expected_seq + 1);
    expected_seq = record.seq;
  }

  // Encode -> decode must be the identity on the accepted prefix.
  std::vector<uint8_t> encoded =
      crowd::server::EncodeJournalHeader(out.header);
  for (const auto& record : out.records) {
    const auto rec = crowd::server::EncodeJournalRecord(record);
    encoded.insert(encoded.end(), rec.begin(), rec.end());
  }
  FUZZ_ASSERT(encoded.size() == out.valid_bytes);
  FUZZ_ASSERT(out.valid_bytes == 0 ||
              std::memcmp(encoded.data(), data,
                          static_cast<size_t>(out.valid_bytes)) == 0);

  // A second replay of the canonical bytes must accept everything and
  // agree with the first decode.
  auto again = crowd::server::ReplayJournalBytes(
      encoded.data(), encoded.size(), "fuzz-roundtrip");
  FUZZ_ASSERT(again.ok());
  FUZZ_ASSERT(again->records.size() == out.records.size());
  FUZZ_ASSERT(again->valid_bytes == out.valid_bytes);
  FUZZ_ASSERT(again->header.base_seq == out.header.base_seq);
  return 0;
}
