#include "server/journal.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace crowd::server {

namespace {

constexpr uint32_t kMagic = 0x4A575243u;  // "CRWJ" little-endian
constexpr uint32_t kVersion = 1;

}  // namespace

std::vector<uint8_t> EncodeJournalHeader(const JournalHeader& header) {
  std::vector<uint8_t> bytes;
  bytes.reserve(Journal::kHeaderBytes);
  PutU32(&bytes, kMagic);
  PutU32(&bytes, kVersion);
  PutU32(&bytes, header.num_workers);
  PutU32(&bytes, header.num_tasks);
  PutU32(&bytes, header.arity);
  PutU32(&bytes, 0);  // reserved
  PutU64(&bytes, header.base_seq);
  return bytes;
}

std::array<uint8_t, Journal::kRecordBytes> EncodeJournalRecord(
    const JournalRecord& record) {
  std::array<uint8_t, Journal::kRecordBytes> bytes;
  uint8_t* p = bytes.data();
  PutU64(p + 4, record.seq);
  PutU32(p + 12, static_cast<uint32_t>(record.worker));
  PutU32(p + 16, static_cast<uint32_t>(record.task));
  PutU32(p + 20, static_cast<uint32_t>(record.value));
  PutU32(p, Crc32(p + 4, Journal::kRecordBytes - 4));
  return bytes;
}

Result<JournalReplay> ReplayJournalBytes(const uint8_t* data, size_t size,
                                         const std::string& context) {
  ByteReader reader(data, size);
  JournalReplay out;
  auto corrupt_header = [&context] {
    return Status::IoError("journal " + context +
                           ": missing or corrupt header");
  };
  if (size < Journal::kHeaderBytes) return corrupt_header();
  CROWD_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) return corrupt_header();
  CROWD_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kVersion) {
    return Status::IoError(StrFormat("journal %s: unsupported version %u",
                                     context.c_str(), version));
  }
  CROWD_ASSIGN_OR_RETURN(out.header.num_workers, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(out.header.num_tasks, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(out.header.arity, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(uint32_t reserved, reader.ReadU32());
  if (reserved != 0) return corrupt_header();  // zero in version 1
  CROWD_ASSIGN_OR_RETURN(out.header.base_seq, reader.ReadU64());

  // Replay: each record must decode, checksum, and carry the next
  // expected seq. The first violation is treated as a torn tail and
  // everything from that offset on is discarded.
  uint64_t last_seq = out.header.base_seq;
  while (reader.remaining() >= Journal::kRecordBytes) {
    auto rec = reader.ReadSpan(Journal::kRecordBytes);
    if (!rec.ok()) break;  // unreachable given the length guard
    if (GetU32(*rec) != Crc32(*rec + 4, Journal::kRecordBytes - 4)) break;
    JournalRecord record;
    record.seq = GetU64(*rec + 4);
    record.worker = GetU32(*rec + 12);
    record.task = GetU32(*rec + 16);
    record.value = static_cast<data::Response>(GetU32(*rec + 20));
    if (record.seq != last_seq + 1) break;
    out.records.push_back(record);
    last_seq = record.seq;
  }
  // The reader's cursor overshoots by one rejected record when the
  // loop breaks mid-file, so compute the valid prefix from the count.
  out.valid_bytes = Journal::kHeaderBytes +
                    out.records.size() * Journal::kRecordBytes;
  return out;
}

Result<Journal> Journal::Create(const std::string& path,
                                const JournalHeader& header) {
  CROWD_ASSIGN_OR_RETURN(File file, File::Create(path));
  std::vector<uint8_t> bytes = EncodeJournalHeader(header);
  CROWD_RETURN_NOT_OK(file.WriteAll(bytes.data(), bytes.size()));
  CROWD_RETURN_NOT_OK(file.Sync());
  CROWD_RETURN_NOT_OK(SyncDirectoryOf(path));
  return Journal(std::move(file), header, header.base_seq, kHeaderBytes);
}

Result<JournalRecovered> Journal::Open(const std::string& path) {
  CROWD_ASSIGN_OR_RETURN(File file, File::OpenAppend(path));
  CROWD_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  CROWD_ASSIGN_OR_RETURN(size_t read,
                         file.ReadAt(0, bytes.data(), bytes.size()));
  bytes.resize(read);
  CROWD_ASSIGN_OR_RETURN(JournalReplay replay,
                         ReplayJournalBytes(bytes.data(), bytes.size(),
                                            path));
  const uint64_t last_seq = replay.header.base_seq + replay.records.size();
  const uint64_t offset = replay.valid_bytes;
  JournalRecovered out{
      Journal(std::move(file), replay.header, last_seq, offset),
      replay.header, std::move(replay.records), 0};
  Journal& journal = out.journal;
  if (offset < size) {
    out.truncated_bytes = size - offset;
    CROWD_RETURN_NOT_OK(journal.file_.Truncate(offset));
    if (obs::Registry* r = obs::MetricsRegistry()) {
      static obs::Counter* const truncations = r->GetCounter(
          "crowdeval_journal_torn_truncations_total",
          "torn journal tails truncated during recovery");
      truncations->Increment();
    }
  }
  if (obs::Registry* r = obs::MetricsRegistry()) {
    static obs::Counter* const replayed = r->GetCounter(
        "crowdeval_journal_replayed_records_total",
        "records replayed from the journal during recovery");
    replayed->Increment(out.records.size());
  }
  return out;
}

Status Journal::Append(std::span<const JournalRecord> records) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].seq != next_seq() + i) {
      return Status::Internal(StrFormat(
          "journal append out of order: seq %llu, expected %llu",
          static_cast<unsigned long long>(records[i].seq),
          static_cast<unsigned long long>(next_seq() + i)));
    }
  }
  if (records.empty()) return Status::OK();
  CROWD_SPAN("journal.append");
  buffer_.resize(records.size() * kRecordBytes);
  for (size_t i = 0; i < records.size(); ++i) {
    const auto bytes = EncodeJournalRecord(records[i]);
    std::copy(bytes.begin(), bytes.end(), buffer_.data() + i * kRecordBytes);
  }
  Status written = file_.WriteAll(buffer_.data(), buffer_.size());
  if (!written.ok()) return RollBack(last_seq_, file_bytes_, written);
  last_seq_ = records.back().seq;
  file_bytes_ += buffer_.size();
  if (obs::Registry* r = obs::MetricsRegistry()) {
    static obs::Counter* const appends = r->GetCounter(
        "crowdeval_journal_appends_total", "journal records appended");
    static obs::Counter* const written_bytes = r->GetCounter(
        "crowdeval_journal_bytes_written_total",
        "bytes appended to the journal");
    appends->Increment(records.size());
    written_bytes->Increment(buffer_.size());
  }
  return Status::OK();
}

Status Journal::RollBack(uint64_t seq, uint64_t bytes, const Status& cause) {
  Status truncated = file_.Truncate(bytes);
  if (!truncated.ok()) {
    return Status::IoError(cause.message() +
                           "; truncating back to the last whole record "
                           "also failed: " +
                           truncated.message());
  }
  last_seq_ = seq;
  file_bytes_ = bytes;
  return cause;
}

Status Journal::Sync() {
  CROWD_SPAN("journal.sync");
  Stopwatch watch;
  Status status = file_.Sync();
  if (obs::Registry* r = obs::MetricsRegistry()) {
    static obs::HistogramMetric* const latency = r->GetHistogram(
        "crowdeval_journal_fsync_seconds", "journal fsync(2) wall time",
        obs::Histogram::LatencyBounds());
    latency->Record(watch.ElapsedSeconds());
  }
  if (!status.ok()) return RollBack(synced_seq_, synced_bytes_, status);
  synced_seq_ = last_seq_;
  synced_bytes_ = file_bytes_;
  return status;
}

}  // namespace crowd::server
