#include "server/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/binary_io.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace crowd::server {

namespace {

constexpr uint32_t kMagic = 0x53575243u;  // "CRWS" little-endian
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 44;
constexpr const char* kPrefix = "snapshot-";
constexpr const char* kSuffix = ".crws";

}  // namespace

std::string SnapshotPath(const std::string& dir, uint64_t seq) {
  return StrFormat("%s/%s%020llu%s", dir.c_str(), kPrefix,
                   static_cast<unsigned long long>(seq), kSuffix);
}

std::vector<uint8_t> EncodeSnapshot(const data::ResponseMatrix& responses,
                                    uint64_t applied_seq) {
  const std::vector<int16_t>& cells = responses.cells();
  const size_t payload_bytes = 2 * cells.size();
  std::vector<uint8_t> bytes(kHeaderBytes + payload_bytes);
  uint8_t* header = bytes.data();
  PutU32(header, kMagic);
  PutU32(header + 4, kVersion);
  PutU32(header + 8, static_cast<uint32_t>(responses.num_workers()));
  PutU32(header + 12, static_cast<uint32_t>(responses.num_tasks()));
  PutU32(header + 16, static_cast<uint32_t>(responses.arity()));
  // header + 20: reserved u32, zero in version 1 (already zeroed).
  PutU64(header + 24, applied_seq);
  PutU64(header + 32, payload_bytes);
  uint8_t* payload = header + kHeaderBytes;
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto u = static_cast<uint16_t>(cells[i]);
    payload[2 * i] = static_cast<uint8_t>(u);
    payload[2 * i + 1] = static_cast<uint8_t>(u >> 8);
  }
  PutU32(header + 40, Crc32(payload, payload_bytes));
  return bytes;
}

Result<SnapshotData> DecodeSnapshot(const uint8_t* data, size_t size,
                                    const std::string& context) {
  auto corrupt = [&context](const char* why) {
    return Status::IoError("snapshot " + context + ": " + why);
  };
  ByteReader reader(data, size);
  if (size < kHeaderBytes) return corrupt("missing or corrupt header");
  CROWD_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) return corrupt("missing or corrupt header");
  CROWD_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kVersion) {
    return Status::IoError(StrFormat("snapshot %s: unsupported version %u",
                                     context.c_str(), version));
  }
  CROWD_ASSIGN_OR_RETURN(uint32_t num_workers, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(uint32_t num_tasks, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(uint32_t arity, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(uint32_t reserved, reader.ReadU32());
  CROWD_ASSIGN_OR_RETURN(uint64_t applied_seq, reader.ReadU64());
  CROWD_ASSIGN_OR_RETURN(uint64_t payload_bytes, reader.ReadU64());
  CROWD_ASSIGN_OR_RETURN(uint32_t crc, reader.ReadU32());
  if (reserved != 0) return corrupt("reserved header field is not zero");
  // FromCells checks the arity and the shape again. These header copies
  // stay: they run before the cell vector is allocated, so a forged
  // header cannot choose the allocation size.
  if (arity < 2 || arity > 32767) {
    return corrupt("arity outside [2, 32767]");
  }
  // The declared payload length and the declared dimensions must both
  // match the bytes actually present, checked without overflow: the
  // pre-hardening form `num_workers * num_tasks * 2 == payload_bytes`
  // wraps at 2^64 (e.g. 2^31 x 2^31 cells declare a 0-byte payload)
  // and then resizes the cell vector to an attacker-chosen size.
  if (payload_bytes != reader.remaining()) {
    return corrupt("truncated payload");
  }
  const uint64_t cell_count = payload_bytes / 2;
  if (payload_bytes % 2 != 0 ||
      static_cast<uint64_t>(num_workers) * num_tasks != cell_count) {
    return corrupt("truncated payload");
  }
  CROWD_ASSIGN_OR_RETURN(const uint8_t* payload,
                         reader.ReadSpan(static_cast<size_t>(payload_bytes)));
  if (Crc32(payload, static_cast<size_t>(payload_bytes)) != crc) {
    return corrupt("checksum mismatch");
  }
  std::vector<int16_t> cells(static_cast<size_t>(cell_count));
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i] = static_cast<int16_t>(
        static_cast<uint16_t>(payload[2 * i] | (payload[2 * i + 1] << 8)));
  }
  auto matrix = data::ResponseMatrix::FromCells(
      num_workers, num_tasks, static_cast<int>(arity), std::move(cells));
  if (!matrix.ok()) {
    return corrupt("cell value outside [0, arity) and not missing");
  }
  return SnapshotData{applied_seq, std::move(*matrix)};
}

Result<uint64_t> WriteSnapshot(const std::string& dir,
                               const data::ResponseMatrix& responses,
                               uint64_t applied_seq) {
  CROWD_SPAN("snapshot.write");
  Stopwatch watch;
  std::vector<uint8_t> bytes = EncodeSnapshot(responses, applied_seq);
  const std::string path = SnapshotPath(dir, applied_seq);
  const std::string tmp = path + ".tmp";
  {
    CROWD_ASSIGN_OR_RETURN(File file, File::Create(tmp));
    CROWD_RETURN_NOT_OK(file.WriteAll(bytes.data(), bytes.size()));
    CROWD_RETURN_NOT_OK(file.Sync());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + " -> " + path);
  }
  CROWD_RETURN_NOT_OK(SyncDirectoryOf(path));
  if (obs::Registry* r = obs::MetricsRegistry()) {
    static obs::Counter* const writes = r->GetCounter(
        "crowdeval_snapshot_writes_total", "snapshots written durably");
    static obs::Counter* const written = r->GetCounter(
        "crowdeval_snapshot_bytes_written_total",
        "bytes written into snapshot files");
    static obs::HistogramMetric* const latency = r->GetHistogram(
        "crowdeval_snapshot_write_seconds",
        "wall time of one durable snapshot write",
        obs::Histogram::LatencyBounds());
    writes->Increment();
    written->Increment(bytes.size());
    latency->Record(watch.ElapsedSeconds());
  }
  return static_cast<uint64_t>(bytes.size());
}

Result<SnapshotData> LoadSnapshot(const std::string& path) {
  CROWD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return DecodeSnapshot(bytes.data(), bytes.size(), path);
}

Result<std::vector<uint64_t>> ListSnapshotSeqs(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!StartsWith(name, kPrefix)) continue;
    if (name.size() <= std::string(kPrefix).size() ||
        !name.ends_with(kSuffix)) {
      continue;
    }
    std::string_view digits(name);
    digits.remove_prefix(std::string(kPrefix).size());
    digits.remove_suffix(std::string(kSuffix).size());
    auto seq = ParseInt(digits);
    if (seq.ok() && *seq >= 0) {
      seqs.push_back(static_cast<uint64_t>(*seq));
    }
  }
  if (ec) {
    return Status::IoError("listing " + dir + ": " + ec.message());
  }
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

Status RemoveSnapshotsBefore(const std::string& dir, uint64_t keep_seq) {
  CROWD_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListSnapshotSeqs(dir));
  for (uint64_t seq : seqs) {
    if (seq < keep_seq) {
      std::remove(SnapshotPath(dir, seq).c_str());
    }
  }
  return Status::OK();
}

}  // namespace crowd::server
