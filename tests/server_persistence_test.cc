// Durability tests for the crowdevald journal + snapshot stack:
// round-trips, torn-write repair at every byte offset of the last
// record, corruption detection, and the end-to-end property that a
// recovered Service produces bit-identical assessments.

#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "gtest/gtest.h"
#include "rng/random.h"
#include "server/binary_io.h"
#include "server/journal.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/snapshot.h"
#include "snapshot_reference.h"
#include "stats_reply.h"
#include "util/string_util.h"

namespace crowd::server {
namespace {

namespace fs = std::filesystem;

// A fresh, empty scratch directory under the test temp root.
std::string ScratchDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/crowd_persist_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<JournalRecord> MakeRecords(size_t count) {
  std::vector<JournalRecord> records;
  for (size_t i = 0; i < count; ++i) {
    JournalRecord r;
    r.seq = i + 1;
    r.worker = i % 3;
    r.task = i % 5;
    r.value = static_cast<data::Response>(i % 2);
    records.push_back(r);
  }
  return records;
}

// Writes a journal with `records` and closes it (File closes on
// destruction, so the on-disk image is complete when this returns).
void WriteJournal(const std::string& path,
                  const std::vector<JournalRecord>& records) {
  JournalHeader header;
  header.num_workers = 3;
  header.num_tasks = 5;
  header.arity = 2;
  header.base_seq = 0;
  auto journal = Journal::Create(path, header);
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (const JournalRecord& r : records) {
    ASSERT_TRUE(journal->Append(r).ok());
  }
}

TEST(JournalTest, RoundTrip) {
  std::string dir = ScratchDir("journal_roundtrip");
  std::string path = dir + "/journal.crwj";
  std::vector<JournalRecord> records = MakeRecords(5);
  WriteJournal(path, records);

  auto recovered = Journal::Open(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->truncated_bytes, 0u);
  EXPECT_EQ(recovered->header.num_workers, 3u);
  EXPECT_EQ(recovered->header.num_tasks, 5u);
  EXPECT_EQ(recovered->header.base_seq, 0u);
  ASSERT_EQ(recovered->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(recovered->records[i].seq, records[i].seq);
    EXPECT_EQ(recovered->records[i].worker, records[i].worker);
    EXPECT_EQ(recovered->records[i].task, records[i].task);
    EXPECT_EQ(recovered->records[i].value, records[i].value);
  }
  EXPECT_EQ(recovered->journal.next_seq(), records.size() + 1);
}

// The acceptance-critical torn-write test: truncate the file at every
// byte offset inside the last record. Recovery must always come back
// with exactly the first K-1 records and repair the file in place.
TEST(JournalTest, TornTailRepairedAtEveryByteOffset) {
  std::string dir = ScratchDir("journal_torn");
  std::string full = dir + "/full.crwj";
  constexpr size_t kRecords = 6;
  WriteJournal(full, MakeRecords(kRecords));
  const uint64_t last_start =
      Journal::kHeaderBytes + (kRecords - 1) * Journal::kRecordBytes;
  const uint64_t full_size = last_start + Journal::kRecordBytes;
  ASSERT_EQ(fs::file_size(full), full_size);

  for (uint64_t cut = last_start; cut < full_size; ++cut) {
    std::string path = dir + "/torn.crwj";
    fs::copy_file(full, path, fs::copy_options::overwrite_existing);
    fs::resize_file(path, cut);

    auto recovered = Journal::Open(path);
    ASSERT_TRUE(recovered.ok())
        << "cut at " << cut << ": " << recovered.status();
    EXPECT_EQ(recovered->records.size(), kRecords - 1) << "cut " << cut;
    EXPECT_EQ(recovered->truncated_bytes, cut - last_start)
        << "cut " << cut;
    EXPECT_EQ(recovered->journal.next_seq(), kRecords) << "cut " << cut;
    // Repaired in place: the file now ends at the last valid record...
    recovered = Journal::Open(path);  // close + reopen
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(fs::file_size(path), last_start) << "cut " << cut;
    // ...and a second recovery is clean.
    EXPECT_EQ(recovered->truncated_bytes, 0u) << "cut " << cut;
    EXPECT_EQ(recovered->records.size(), kRecords - 1) << "cut " << cut;
  }
}

TEST(JournalTest, CorruptRecordDropsItAndEverythingAfter) {
  std::string dir = ScratchDir("journal_corrupt");
  std::string path = dir + "/journal.crwj";
  WriteJournal(path, MakeRecords(6));

  // Flip one payload byte of record 3 (0-indexed 2).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(Journal::kHeaderBytes +
                                        2 * Journal::kRecordBytes + 9));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  auto recovered = Journal::Open(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->records.size(), 2u);
  EXPECT_EQ(recovered->truncated_bytes, 4 * Journal::kRecordBytes);
}

void ExpectSameRecords(const std::vector<JournalRecord>& got,
                       const std::vector<JournalRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].seq, want[i].seq) << i;
    EXPECT_EQ(got[i].worker, want[i].worker) << i;
    EXPECT_EQ(got[i].task, want[i].task) << i;
    EXPECT_EQ(got[i].value, want[i].value) << i;
  }
}

JournalHeader SmallHeader() {
  JournalHeader header;
  header.num_workers = 3;
  header.num_tasks = 5;
  return header;
}

// One Append of a span writes the bytes that appending its records one
// at a time writes, and replays to the same records.
TEST(JournalTest, SpanAppendMatchesOneAtATime) {
  const std::string dir = ScratchDir("journal_span");
  const std::vector<JournalRecord> records = MakeRecords(9);
  WriteJournal(dir + "/single.crwj", records);
  {
    auto journal = Journal::Create(dir + "/span.crwj", SmallHeader());
    ASSERT_TRUE(journal.ok()) << journal.status();
    const std::span<const JournalRecord> all(records);
    ASSERT_TRUE(journal->Append(all.first(4)).ok());
    ASSERT_TRUE(journal->Append(all.subspan(4, 0)).ok());
    ASSERT_TRUE(journal->Append(all.subspan(4)).ok());
    EXPECT_EQ(journal->next_seq(), records.size() + 1);
    EXPECT_EQ(journal->file_bytes(),
              Journal::kHeaderBytes + records.size() * Journal::kRecordBytes);
  }
  auto single = ReadFileBytes(dir + "/single.crwj");
  auto span = ReadFileBytes(dir + "/span.crwj");
  ASSERT_TRUE(single.ok() && span.ok());
  EXPECT_EQ(*span, *single);
  auto replay = ReplayJournalBytes(span->data(), span->size(), "span");
  ASSERT_TRUE(replay.ok()) << replay.status();
  ExpectSameRecords(replay->records, records);
}

// A seq gap anywhere in a span rejects the whole span before a byte is
// written.
TEST(JournalTest, SpanWithSeqGapWritesNothing) {
  const std::string path = ScratchDir("journal_span_gap") + "/j.crwj";
  auto journal = Journal::Create(path, SmallHeader());
  ASSERT_TRUE(journal.ok()) << journal.status();
  std::vector<JournalRecord> records = MakeRecords(6);
  ASSERT_TRUE(
      journal->Append(std::span<const JournalRecord>(records).first(2)).ok());
  const uint64_t bytes = fs::file_size(path);
  records[4].seq = 7;  // 3, 4, 7, 6: a gap in the middle
  const Status st =
      journal->Append(std::span<const JournalRecord>(records).subspan(2));
  EXPECT_TRUE(st.IsInternal()) << st;
  EXPECT_EQ(fs::file_size(path), bytes);
  EXPECT_EQ(journal->file_bytes(), bytes);
  EXPECT_EQ(journal->next_seq(), 3u);
}

// Caps this process's file-size limit (RLIMIT_FSIZE) with SIGXFSZ
// ignored, so a write(2) that crosses the cap comes back short and the
// next one fails with EFBIG; restores both on destruction.
class FileSizeCap {
 public:
  explicit FileSizeCap(uint64_t bytes)
      : old_handler_(std::signal(SIGXFSZ, SIG_IGN)) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &old_), 0);
    rlimit cap = old_;
    cap.rlim_cur = static_cast<rlim_t>(bytes);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &cap), 0);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  void (*old_handler_)(int);
  rlimit old_{};
};

// A write cut short mid-record leaves the file at its last whole
// record, so appending after the cap is lifted writes the same bytes
// as an append that never failed.
TEST(JournalTest, FailedAppendTruncatesBackToLastWholeRecord) {
  const std::string dir = ScratchDir("journal_failed_append");
  const std::vector<JournalRecord> records = MakeRecords(5);
  const std::span<const JournalRecord> all(records);
  WriteJournal(dir + "/clean.crwj", records);
  const std::string path = dir + "/capped.crwj";
  auto journal = Journal::Create(path, SmallHeader());
  ASSERT_TRUE(journal.ok()) << journal.status();
  ASSERT_TRUE(journal->Append(all.first(2)).ok());
  const uint64_t bytes = journal->file_bytes();
  {
    // Record 4 of the span is cut after 10 bytes.
    FileSizeCap cap(bytes + Journal::kRecordBytes + 10);
    EXPECT_TRUE(journal->Append(all.subspan(2)).IsIoError());
  }
  EXPECT_EQ(fs::file_size(path), bytes);
  EXPECT_EQ(journal->file_bytes(), bytes);
  EXPECT_EQ(journal->next_seq(), 3u);
  ASSERT_TRUE(journal->Append(all.subspan(2)).ok());
  auto clean = ReadFileBytes(dir + "/clean.crwj");
  auto capped = ReadFileBytes(path);
  ASSERT_TRUE(clean.ok() && capped.ok());
  EXPECT_EQ(*capped, *clean);
}

TEST(JournalTest, GarbageHeaderIsAnIoError) {
  std::string dir = ScratchDir("journal_badheader");
  std::string path = dir + "/journal.crwj";
  std::ofstream(path, std::ios::binary) << "not a journal at all";
  EXPECT_TRUE(Journal::Open(path).status().IsIoError());
}

TEST(SnapshotTest, RoundTrip) {
  std::string dir = ScratchDir("snapshot_roundtrip");
  data::ResponseMatrix matrix(4, 6, 2);
  ASSERT_TRUE(matrix.Set(0, 0, 1).ok());
  ASSERT_TRUE(matrix.Set(1, 3, 0).ok());
  ASSERT_TRUE(matrix.Set(3, 5, 1).ok());

  auto bytes = WriteSnapshot(dir, matrix, 42);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto loaded = LoadSnapshot(SnapshotPath(dir, 42));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const data::ResponseMatrix& back = loaded->matrix;
  EXPECT_EQ(back.num_workers(), 4u);
  EXPECT_EQ(back.num_tasks(), 6u);
  EXPECT_EQ(loaded->applied_seq, 42u);

  for (data::WorkerId w = 0; w < 4; ++w) {
    for (data::TaskId t = 0; t < 6; ++t) {
      EXPECT_EQ(back.Get(w, t), matrix.Get(w, t)) << w << "," << t;
    }
  }
}

TEST(SnapshotTest, CorruptPayloadDetected) {
  std::string dir = ScratchDir("snapshot_corrupt");
  data::ResponseMatrix matrix(3, 3, 2);
  ASSERT_TRUE(matrix.Set(1, 1, 1).ok());
  ASSERT_TRUE(WriteSnapshot(dir, matrix, 7).ok());
  std::string path = SnapshotPath(dir, 7);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);  // last payload byte
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::end);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  EXPECT_TRUE(LoadSnapshot(path).status().IsIoError());
}

// The snapshot counterpart of the journal torn-write test: truncating
// a valid image at EVERY byte offset must yield a clean IoError —
// never a crash, an over-read, or a silently wrong matrix. Runs on
// the in-memory codec so ~100 offsets stay fast.
TEST(SnapshotTest, TruncationAtEveryByteOffsetFailsCleanly) {
  data::ResponseMatrix matrix(3, 4, 3);
  ASSERT_TRUE(matrix.Set(0, 0, 2).ok());
  ASSERT_TRUE(matrix.Set(2, 3, 1).ok());
  const std::vector<uint8_t> full = EncodeSnapshot(matrix, 99);

  for (size_t cut = 0; cut < full.size(); ++cut) {
    auto decoded = DecodeSnapshot(full.data(), cut, "truncated");
    EXPECT_TRUE(decoded.status().IsIoError())
        << "cut at " << cut << ": " << decoded.status();
  }
  auto intact = DecodeSnapshot(full.data(), full.size(), "intact");
  ASSERT_TRUE(intact.ok()) << intact.status();
  EXPECT_EQ(intact->applied_seq, 99u);
}

// Flip every byte of a valid image (all 8 bits at once per offset):
// decoding must either fail with a Status or — when the flip lands in
// a byte the format legitimately lets vary — produce a self-consistent
// snapshot that still round-trips. It must never crash.
TEST(SnapshotTest, ByteFlipAtEveryOffsetIsCrashFreeAndConsistent) {
  data::ResponseMatrix matrix(2, 5, 2);
  ASSERT_TRUE(matrix.Set(0, 1, 1).ok());
  ASSERT_TRUE(matrix.Set(1, 4, 0).ok());
  const std::vector<uint8_t> full = EncodeSnapshot(matrix, 7);

  int survivors = 0;
  for (size_t i = 0; i < full.size(); ++i) {
    std::vector<uint8_t> mutated = full;
    mutated[i] ^= 0xFF;
    auto decoded = DecodeSnapshot(mutated.data(), mutated.size(), "flip");
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsIoError()) << "offset " << i;
      continue;
    }
    // Accepted despite the flip (e.g. a bit of applied_seq): the
    // decode must still be internally consistent and re-encode to the
    // exact bytes it was parsed from.
    ++survivors;
    EXPECT_EQ(EncodeSnapshot(decoded->matrix, decoded->applied_seq), mutated)
        << "offset " << i;
  }
  // The CRC covers the payload and the header is fully validated, so
  // the only flips that can survive are the 8 bytes of applied_seq
  // (by design not CRC-protected: the seq is cross-checked against
  // the filename) and the low byte of arity when the flip lands
  // inside [2, 32767] with every cell still in range — both decode to
  // self-consistent snapshots. Anything more means detection
  // regressed.
  EXPECT_LE(survivors, 9) << "corruption detection regressed";
}

// Regression for the u64 overflow found by fuzz_snapshot (corpus seed
// `overflow-dims`): num_workers = num_tasks = 2^31 makes
// nw * nt * 2 wrap to 0, which the pre-ByteReader loader accepted and
// then asked resize() for 2^62 cells.
TEST(SnapshotTest, OverflowedDimensionsRejectedBeforeAllocation) {
  data::ResponseMatrix matrix(1, 1, 2);
  std::vector<uint8_t> bytes = EncodeSnapshot(matrix, 1);
  auto put_u32 = [&bytes](size_t off, uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      bytes[off + static_cast<size_t>(b)] =
          static_cast<uint8_t>(v >> (8 * b));
    }
  };
  put_u32(8, 0x80000000u);   // num_workers = 2^31
  put_u32(12, 0x80000000u);  // num_tasks   = 2^31
  auto decoded = DecodeSnapshot(bytes.data(), bytes.size(), "overflow");
  EXPECT_TRUE(decoded.status().IsIoError()) << decoded.status();
}

// A header that declares more payload than the file holds (and the
// converse) must be caught by the size check, not the CRC — the CRC
// would read out of bounds first.
TEST(SnapshotTest, SizeInflatedPayloadRejected) {
  data::ResponseMatrix matrix(2, 2, 2);
  const std::vector<uint8_t> full = EncodeSnapshot(matrix, 5);

  std::vector<uint8_t> inflated = full;
  inflated[36] = 0xFF;  // payload_bytes (u64 at offset 32) huge
  EXPECT_TRUE(DecodeSnapshot(inflated.data(), inflated.size(), "inflated")
                  .status()
                  .IsIoError());

  std::vector<uint8_t> trailing = full;
  trailing.push_back(0);  // extra byte after the declared payload
  EXPECT_TRUE(DecodeSnapshot(trailing.data(), trailing.size(), "trailing")
                  .status()
                  .IsIoError());
}

// Cells outside [-1, arity) and nonzero reserved header bytes are
// rejected at decode time so every accepted snapshot converts to a
// ResponseMatrix and re-encodes byte-identically (the fuzz round-trip
// contract).
TEST(SnapshotTest, OutOfRangeCellAndReservedFieldRejected) {
  data::ResponseMatrix matrix(2, 2, 2);
  std::vector<uint8_t> bytes = EncodeSnapshot(matrix, 5);
  const size_t payload_start = bytes.size() - 4 * sizeof(int16_t);

  std::vector<uint8_t> bad_cell = bytes;
  bad_cell[payload_start] = 0x02;  // cell value 2 >= arity 2
  // Recompute the CRC (u32 at offset 40) so only the range check can
  // reject it.
  uint32_t crc = Crc32(bad_cell.data() + payload_start,
                       bad_cell.size() - payload_start);
  for (int b = 0; b < 4; ++b) {
    bad_cell[40 + static_cast<size_t>(b)] =
        static_cast<uint8_t>(crc >> (8 * b));
  }
  EXPECT_TRUE(DecodeSnapshot(bad_cell.data(), bad_cell.size(), "cell")
                  .status()
                  .IsIoError());

  std::vector<uint8_t> reserved = bytes;
  reserved[20] = 1;  // reserved u32 at offset 20 must be zero
  EXPECT_TRUE(DecodeSnapshot(reserved.data(), reserved.size(), "reserved")
                  .status()
                  .IsIoError());
}

TEST(SnapshotTest, ListAndRemove) {
  std::string dir = ScratchDir("snapshot_list");
  data::ResponseMatrix matrix(2, 2, 2);
  for (uint64_t seq : {3u, 10u, 7u}) {
    ASSERT_TRUE(WriteSnapshot(dir, matrix, seq).ok());
  }
  auto seqs = ListSnapshotSeqs(dir);
  ASSERT_TRUE(seqs.ok()) << seqs.status();
  EXPECT_EQ(*seqs, (std::vector<uint64_t>{10, 7, 3}));

  ASSERT_TRUE(RemoveSnapshotsBefore(dir, 10).ok());
  seqs = ListSnapshotSeqs(dir);
  ASSERT_TRUE(seqs.ok());
  EXPECT_EQ(*seqs, (std::vector<uint64_t>{10}));
}

// ---------------------------------------------------------------------
// The codec against its two-pass reference (tests/snapshot_reference.h).

data::ResponseMatrix RandomMatrix(size_t workers, size_t tasks, int arity,
                                  double density, Random* rng) {
  data::ResponseMatrix matrix(workers, tasks, arity);
  for (data::WorkerId w = 0; w < workers; ++w) {
    for (data::TaskId t = 0; t < tasks; ++t) {
      if (rng->Bernoulli(density)) {
        matrix
            .Set(w, t,
                 static_cast<int>(
                     rng->UniformInt(static_cast<uint64_t>(arity))))
            .AbortIfNotOk();
      }
    }
  }
  return matrix;
}

void ExpectSameMatrix(const data::ResponseMatrix& actual,
                      const data::ResponseMatrix& expected) {
  EXPECT_EQ(actual.num_workers(), expected.num_workers());
  EXPECT_EQ(actual.num_tasks(), expected.num_tasks());
  EXPECT_EQ(actual.arity(), expected.arity());
  EXPECT_EQ(actual.TotalResponses(), expected.TotalResponses());
  EXPECT_EQ(actual.cells(), expected.cells());
}

// The new decode accepts exactly what the reference accepts, rejects
// only with IoError, and decodes what both accept to the same matrix.
void ExpectDecodeAgreesWithReference(const std::vector<uint8_t>& bytes,
                                     const std::string& label) {
  SCOPED_TRACE(label);
  auto decoded = DecodeSnapshot(bytes.data(), bytes.size(), "oracle");
  auto reference = ReferenceDecodeToMatrix(bytes.data(), bytes.size());
  ASSERT_EQ(decoded.ok(), reference.ok())
      << decoded.status() << " vs reference " << reference.status();
  if (!decoded.ok()) {
    EXPECT_TRUE(decoded.status().IsIoError()) << decoded.status();
    return;
  }
  ExpectSameMatrix(decoded->matrix, *reference);
}

TEST(SnapshotOracleTest, RandomMatricesEncodeAndDecodeLikeReference) {
  Random rng(2015);
  const std::pair<size_t, size_t> shapes[] = {
      {0, 5}, {5, 0}, {1, 1}, {7, 13}, {40, 300}};
  for (int arity : {2, 3, 7}) {
    for (auto [workers, tasks] : shapes) {
      for (double density : {0.0, 0.3, 1.0}) {
        SCOPED_TRACE(StrFormat("%zux%zu arity %d density %.1f", workers,
                               tasks, arity, density));
        const data::ResponseMatrix matrix =
            RandomMatrix(workers, tasks, arity, density, &rng);
        const uint64_t seq = rng.NextUint64();
        const std::vector<uint8_t> bytes = EncodeSnapshot(matrix, seq);
        ASSERT_EQ(bytes, ReferenceEncodeSnapshot(matrix, seq));

        auto decoded = DecodeSnapshot(bytes.data(), bytes.size(), "oracle");
        ASSERT_TRUE(decoded.ok()) << decoded.status();
        EXPECT_EQ(decoded->applied_seq, seq);
        ExpectSameMatrix(decoded->matrix, matrix);
        auto reference = ReferenceDecodeToMatrix(bytes.data(), bytes.size());
        ASSERT_TRUE(reference.ok()) << reference.status();
        ExpectSameMatrix(decoded->matrix, *reference);
      }
    }
  }
}

// Every truncation and every byte flip of one image. A flip in the
// payload is tried twice: as is (the CRC rejects it) and with the CRC
// re-sealed, so the cell range check alone decides.
TEST(SnapshotOracleTest, DamagedImagesAcceptedExactlyLikeReference) {
  Random rng(17);
  const data::ResponseMatrix matrix = RandomMatrix(3, 5, 3, 0.6, &rng);
  const std::vector<uint8_t> full = EncodeSnapshot(matrix, 12345);
  constexpr size_t kHeaderBytes = 44;

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    ExpectDecodeAgreesWithReference(
        std::vector<uint8_t>(full.begin(), full.begin() + cut),
        StrFormat("cut at %zu", cut));
  }
  for (size_t i = 0; i < full.size(); ++i) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> flipped = full;
      flipped[i] ^= mask;
      ExpectDecodeAgreesWithReference(
          flipped, StrFormat("flip 0x%02x at %zu", mask, i));
      if (i < kHeaderBytes) continue;
      PutU32(flipped.data() + 40,
             Crc32(flipped.data() + kHeaderBytes,
                   flipped.size() - kHeaderBytes));
      ExpectDecodeAgreesWithReference(
          flipped, StrFormat("resealed flip 0x%02x at %zu", mask, i));
    }
  }
}

TEST(SnapshotOracleTest, FuzzCorpusAcceptedExactlyLikeReference) {
  size_t seeds = 0;
  for (const auto& entry :
       fs::directory_iterator(CROWD_FUZZ_CORPUS_DIR "/fuzz_snapshot")) {
    auto bytes = ReadFileBytes(entry.path().string());
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    ExpectDecodeAgreesWithReference(*bytes, entry.path().filename());
    ++seeds;
  }
  EXPECT_GE(seeds, 16u);
}

// ---------------------------------------------------------------------
// Service-level recovery properties.

std::string EvalAllJson(Service* service) {
  core::MWorkerResult result = service->EvaluateAll();
  return MWorkerResultBodyJson(result);
}

// The headline property: stream random responses through a durable
// service (crossing several automatic snapshot/compaction boundaries),
// "crash" (drop the handle without any final snapshot), recover, and
// require the recovered assessments to be bit-identical both to the
// pre-crash service and to an in-memory service fed the same stream.
TEST(ServiceRecoveryTest, RandomStreamsRecoverBitIdentical) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::string dir =
        ScratchDir("service_roundtrip_" + std::to_string(seed));
    constexpr size_t kWorkers = 10;
    constexpr size_t kTasks = 40;
    constexpr size_t kResponses = 300;

    ServiceOptions durable;
    durable.num_workers = kWorkers;
    durable.num_tasks = kTasks;
    durable.data_dir = dir + "/state";
    durable.snapshot_every = 71;  // several compactions per stream
    auto service = Service::Open(durable);
    ASSERT_TRUE(service.ok()) << service.status();

    ServiceOptions in_memory;
    in_memory.num_workers = kWorkers;
    in_memory.num_tasks = kTasks;
    auto mirror = Service::Open(in_memory);
    ASSERT_TRUE(mirror.ok()) << mirror.status();

    Random rng(seed);
    for (size_t i = 0; i < kResponses; ++i) {
      auto w = static_cast<data::WorkerId>(rng.UniformInt(kWorkers));
      auto t = static_cast<data::TaskId>(rng.UniformInt(kTasks));
      auto v = static_cast<data::Response>(rng.UniformInt(2));
      ASSERT_TRUE((*service)->Ingest(w, t, v).ok());
      ASSERT_TRUE((*mirror)->Ingest(w, t, v).ok());
    }
    const std::string expected = EvalAllJson(service->get());
    const uint64_t expected_seq = (*service)->last_seq();
    EXPECT_GT(
        StatField((*service)->ExecuteLine("STATS"), "snapshots_written"),
        1u);
    service->reset();  // "crash": no final snapshot

    ServiceOptions recover;
    recover.data_dir = dir + "/state";  // dims come from disk
    auto recovered = Service::Open(recover);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ((*recovered)->num_workers(), kWorkers);
    EXPECT_EQ((*recovered)->num_tasks(), kTasks);
    EXPECT_EQ((*recovered)->last_seq(), expected_seq);
    EXPECT_EQ(EvalAllJson(recovered->get()), expected) << "seed " << seed;
    EXPECT_EQ(EvalAllJson(mirror->get()), expected) << "seed " << seed;
  }
}

// A torn final record must roll the service back to exactly the state
// before that response — compared bit-for-bit against a fresh
// evaluator fed the surviving prefix.
TEST(ServiceRecoveryTest, TornJournalTailRollsBackOneResponse) {
  std::string dir = ScratchDir("service_torn");
  constexpr size_t kWorkers = 6;
  constexpr size_t kTasks = 10;

  ServiceOptions durable;
  durable.num_workers = kWorkers;
  durable.num_tasks = kTasks;
  durable.data_dir = dir + "/state";
  auto service = Service::Open(durable);
  ASSERT_TRUE(service.ok()) << service.status();

  // Distinct cells so every response is accepted and journaled.
  std::vector<JournalRecord> stream;
  Random rng(99);
  for (size_t i = 0; i < 40; ++i) {
    JournalRecord r;
    r.worker = i % kWorkers;
    r.task = (i / kWorkers) % kTasks;
    r.value = static_cast<data::Response>(rng.UniformInt(2));
    stream.push_back(r);
    ASSERT_TRUE((*service)->Ingest(r.worker, r.task, r.value).ok());
  }
  ASSERT_EQ((*service)->last_seq(), stream.size());
  service->reset();

  std::string journal = dir + "/state/journal.crwj";
  fs::resize_file(journal, fs::file_size(journal) - 7);  // mid-record

  ServiceOptions recover;
  recover.data_dir = dir + "/state";
  auto recovered = Service::Open(recover);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->last_seq(), stream.size() - 1);
  const std::string stats = (*recovered)->ExecuteLine("STATS");
  EXPECT_EQ(StatField(stats, "recovery_truncated_bytes"),
            Journal::kRecordBytes - 7);
  EXPECT_EQ(StatField(stats, "recovered_records"), stream.size() - 1);

  core::IncrementalEvaluator prefix(kWorkers, kTasks);
  for (size_t i = 0; i + 1 < stream.size(); ++i) {
    ASSERT_TRUE(
        prefix.AddResponse(stream[i].worker, stream[i].task, stream[i].value)
            .ok());
  }
  core::MWorkerResult want = prefix.EvaluateAll();
  EXPECT_EQ(EvalAllJson(recovered->get()), MWorkerResultBodyJson(want));
}

// A crash after a snapshot is written but before the journal is
// compacted leaves a journal whose records start at or below the
// snapshot's seq. Recovery must skip every record the snapshot already
// covers — including older values of cells overwritten since — and
// apply only the ones above it.
TEST(ServiceRecoveryTest, CompactionCrashWindowAppliesOnlyNewerRecords) {
  std::string dir = ScratchDir("service_compaction_window");
  const std::string state = dir + "/state";
  const std::string journal = state + "/journal.crwj";
  constexpr size_t kWorkers = 6;
  constexpr size_t kTasks = 12;
  constexpr size_t kLateRecords = 8;

  ServiceOptions durable;
  durable.num_workers = kWorkers;
  durable.num_tasks = kTasks;
  durable.data_dir = state;
  auto service = Service::Open(durable);
  ASSERT_TRUE(service.ok()) << service.status();
  ServiceOptions in_memory;
  in_memory.num_workers = kWorkers;
  in_memory.num_tasks = kTasks;
  auto mirror = Service::Open(in_memory);
  ASSERT_TRUE(mirror.ok()) << mirror.status();

  // 150 responses over 72 cells: many overwrite an earlier answer, so
  // the pre-snapshot records disagree with the snapshot image.
  Random rng(5);
  auto draw = [&rng] {
    JournalRecord r;
    r.worker = static_cast<data::WorkerId>(rng.UniformInt(kWorkers));
    r.task = static_cast<data::TaskId>(rng.UniformInt(kTasks));
    r.value = static_cast<data::Response>(rng.UniformInt(2));
    return r;
  };
  for (size_t i = 0; i < 150; ++i) {
    const JournalRecord r = draw();
    ASSERT_TRUE((*service)->Ingest(r.worker, r.task, r.value).ok());
    ASSERT_TRUE((*mirror)->Ingest(r.worker, r.task, r.value).ok());
  }
  const uint64_t snapshot_seq = (*service)->last_seq();
  fs::copy_file(journal, dir + "/journal.before_snapshot");
  auto snap = (*service)->TakeSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status();
  ASSERT_EQ(*snap, snapshot_seq);
  service->reset();

  // Undo the compaction, then append records past the snapshot.
  fs::copy_file(dir + "/journal.before_snapshot", journal,
                fs::copy_options::overwrite_existing);
  uint64_t last_appended = 0;
  {
    auto reopened = Journal::Open(journal);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    ASSERT_EQ(reopened->journal.next_seq(), snapshot_seq + 1);
    for (size_t i = 0; i < kLateRecords; ++i) {
      JournalRecord r = draw();
      r.seq = reopened->journal.next_seq();
      ASSERT_TRUE(reopened->journal.Append(r).ok());
      ASSERT_TRUE((*mirror)->Ingest(r.worker, r.task, r.value).ok());
      last_appended = r.seq;
    }
  }

  ServiceOptions recover;
  recover.data_dir = state;
  auto recovered = Service::Open(recover);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->last_seq(), last_appended);
  EXPECT_EQ(StatField((*recovered)->ExecuteLine("STATS"),
                      "recovered_records"),
            kLateRecords);
  EXPECT_EQ(EvalAllJson(recovered->get()), EvalAllJson(mirror->get()));
}

// A record can pass its CRC and seq checks and still name a cell
// outside the universe or a value outside the arity (a writer bug or a
// hand-edited file). Recovery must refuse it with a Status that names
// the record, never abort.
TEST(ServiceRecoveryTest, OutOfRangeJournalRecordFailsOpenCleanly) {
  JournalRecord bad_worker;
  bad_worker.seq = 3;
  bad_worker.worker = 3;  // the journal's universe is 3 x 5
  bad_worker.task = 0;
  bad_worker.value = 1;
  JournalRecord bad_value;
  bad_value.seq = 3;
  bad_value.worker = 0;
  bad_value.task = 1;
  bad_value.value = 2;  // binary: 0 or 1
  int case_index = 0;
  for (const JournalRecord& bad : {bad_worker, bad_value}) {
    std::string dir =
        ScratchDir("service_bad_record_" + std::to_string(case_index++));
    fs::create_directories(dir + "/state");
    std::vector<JournalRecord> records = MakeRecords(2);
    records.push_back(bad);
    WriteJournal(dir + "/state/journal.crwj", records);

    ServiceOptions recover;
    recover.data_dir = dir + "/state";
    auto service = Service::Open(recover);
    ASSERT_FALSE(service.ok());
    EXPECT_TRUE(service.status().IsInvalid()) << service.status();
    EXPECT_NE(service.status().message().find("replaying journal seq 3"),
              std::string::npos)
        << service.status();
  }
}

// A journal write that fails is final. Every RESP of the failed run
// gets the I/O error, the journal keeps no torn bytes, and every verb
// that writes or reads the responses (RESP, SNAPSHOT, EVAL, EVAL_ALL,
// SPAMMERS) is refused until the service is reopened, since the failed
// run's cells are still in memory. After the reopen every acked seq is
// present, no failed one is, and every verb works again.
TEST(ServiceRecoveryTest, FailedJournalWriteIsFinalAndLeavesNoTornBytes) {
  const std::string state = ScratchDir("service_failed_write") + "/state";
  const std::string journal = state + "/journal.crwj";
  ServiceOptions options;
  options.num_workers = 4;
  options.num_tasks = 6;
  options.data_dir = state;
  auto service = Service::Open(options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_EQ((*service)->ExecuteLine("RESP 0 0 1"), "{\"ok\":true,\"seq\":1}");
  const uint64_t acked_bytes = fs::file_size(journal);

  // A new response, a no-op and an overwrite: the run's records are
  // cut 10 bytes into the first one.
  const std::vector<std::string_view> run = {"RESP 1 0 1", "RESP 0 0 1",
                                             "RESP 0 0 0"};
  std::string replies;
  {
    FileSizeCap cap(acked_bytes + 10);
    (*service)->ExecuteBurst(run, &replies);
  }
  std::istringstream lines(replies);
  std::string reply;
  size_t count = 0;
  while (std::getline(lines, reply)) {
    ++count;
    EXPECT_EQ(reply.find("{\"ok\":false,\"code\":\"I/O error\""), 0u)
        << reply;
    EXPECT_NE(reply.find("File too large"), std::string::npos) << reply;
  }
  EXPECT_EQ(count, run.size());
  EXPECT_EQ(fs::file_size(journal), acked_bytes);

  for (const char* line :
       {"RESP 2 0 1", "SNAPSHOT", "EVAL 0", "EVAL_ALL", "SPAMMERS"}) {
    reply = (*service)->ExecuteLine(line);
    EXPECT_EQ(reply.find("{\"ok\":false,\"code\":\"I/O error\""), 0u)
        << line << ": " << reply;
    EXPECT_NE(reply.find("refused until the service restarts"),
              std::string::npos)
        << line << ": " << reply;
  }
  // The typed entry points refuse too: EvaluateAll with every worker
  // failed.
  Result<core::WorkerAssessment> one = (*service)->Evaluate(0);
  EXPECT_TRUE(one.status().IsIoError()) << one.status();
  core::MWorkerResult all = (*service)->EvaluateAll();
  EXPECT_TRUE(all.assessments.empty());
  ASSERT_EQ(all.failures.size(), 4u);
  for (const auto& [worker, status] : all.failures) {
    EXPECT_TRUE(status.IsIoError()) << worker << ": " << status;
  }
  EXPECT_EQ(StatField((*service)->ExecuteLine("STATS"), "total_responses"),
            2u);
  EXPECT_EQ((*service)->last_seq(), 1u);
  EXPECT_EQ(fs::file_size(journal), acked_bytes);
  service->reset();

  auto recovered = Service::Open(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->last_seq(), 1u);
  EXPECT_EQ(StatField((*recovered)->ExecuteLine("STATS"),
                      "recovery_truncated_bytes"),
            0u);
  core::IncrementalEvaluator acked(4, 6);
  ASSERT_TRUE(acked.AddResponse(0, 0, 1).ok());
  EXPECT_EQ(EvalAllJson(recovered->get()),
            MWorkerResultBodyJson(acked.EvaluateAll()));
  // The reopened service takes writes again, from the next seq, and
  // answers every read.
  EXPECT_EQ((*recovered)->ExecuteLine("RESP 1 0 1"),
            "{\"ok\":true,\"seq\":2}");
  for (const char* line : {"SPAMMERS", "SNAPSHOT"}) {
    EXPECT_EQ((*recovered)->ExecuteLine(line).find("{\"ok\":true,"), 0u)
        << line;
  }
  // Two responses are too few to assess worker 0, but EVAL is answered.
  reply = (*recovered)->ExecuteLine("EVAL 0");
  EXPECT_EQ(reply.find("refused"), std::string::npos) << reply;
}

TEST(ServiceRecoveryTest, StaleTempFilesSweptOnOpen) {
  std::string dir = ScratchDir("service_tmp_sweep");
  ServiceOptions options;
  options.num_workers = 3;
  options.num_tasks = 3;
  options.data_dir = dir + "/state";
  { auto service = Service::Open(options); ASSERT_TRUE(service.ok()); }

  // Simulate a crash mid-snapshot / mid-compaction.
  std::ofstream(dir + "/state/journal.crwj.tmp") << "partial";
  std::ofstream(dir + "/state/snapshot-00000000000000000009.crws.tmp")
      << "partial";
  auto service = Service::Open(options);
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_FALSE(fs::exists(dir + "/state/journal.crwj.tmp"));
  EXPECT_FALSE(
      fs::exists(dir + "/state/snapshot-00000000000000000009.crws.tmp"));
}

TEST(ServiceRecoveryTest, ConflictingDimensionsRejected) {
  std::string dir = ScratchDir("service_dim_conflict");
  ServiceOptions options;
  options.num_workers = 5;
  options.num_tasks = 8;
  options.data_dir = dir + "/state";
  { auto service = Service::Open(options); ASSERT_TRUE(service.ok()); }

  options.num_workers = 6;
  EXPECT_TRUE(Service::Open(options).status().IsInvalid());
}

TEST(ServiceRecoveryTest, FreshServiceRequiresDimensions) {
  ServiceOptions options;  // no dims, no data_dir
  EXPECT_TRUE(Service::Open(options).status().IsInvalid());
}

}  // namespace
}  // namespace crowd::server
