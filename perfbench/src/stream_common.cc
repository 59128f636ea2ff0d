#include "stream_common.h"

#include <algorithm>
#include <thread>

#include "rng/random.h"

namespace perfbench {

namespace {
constexpr size_t kPipelineDepth = 16;
}  // namespace

SeededStream MakeSeededStream(size_t workers, size_t tasks, uint64_t seed,
                              const std::string& run_dir) {
  SeededStream s;
  s.crowd = MakeBinaryCrowd(workers, tasks, kStreamDensity, seed);
  s.snapshot_tasks = tasks * 2 / 5;
  s.seeded_tasks = tasks / 2;
  s.seed_dir = run_dir + "/seeded";
  s.tail_records =
      WriteSeededDir(s.crowd, s.snapshot_tasks, s.seeded_tasks, s.seed_dir);
  s.seed_dir_bytes = TreeBytes(s.seed_dir);
  for (size_t t = 0; t < s.seeded_tasks; ++t) {
    s.seeded_cells += s.crowd.matrix.TaskResponseCount(t);
  }
  for (size_t k = 0; k < 2; ++k) {
    const size_t lo = k * workers / 2, hi = (k + 1) * workers / 2;
    s.writer_cells[k] =
        CellsInTaskOrder(s.crowd.matrix, s.seeded_tasks, tasks, lo, hi);
    for (const Cell& c : s.writer_cells[k]) s.writer_lines[k].Add(RespLine(c));
  }
  return s;
}

std::unique_ptr<Daemon> StartOnFreshCopy(const Options& options,
                                         const SeededStream& s,
                                         const std::string& dir,
                                         Report* report) {
  const uint64_t copied = CopyTree(s.seed_dir, dir);
  auto daemon = std::make_unique<Daemon>(options.daemon, dir, dir + ".sock");
  const std::string& stats = daemon->first_stats();
  const bool fresh =
      copied == s.seed_dir_bytes &&
      JsonInt(stats, "total_responses") ==
          static_cast<long long>(s.seeded_cells) &&
      JsonInt(stats, "recovered_records") ==
          static_cast<long long>(s.tail_records) &&
      JsonInt(stats, "responses_ingested") == 0;
  if (!fresh) report->Check("fresh_seeded_copy", false);
  return daemon;
}

void ReplyLog::AckReply(const std::string& reply) {
  if (ReplyOk(reply)) {
    ++acked_ok;
    const long long seq = JsonInt(reply, "seq");
    if (seq >= 0) seqs.push_back(static_cast<uint64_t>(seq));
    return;
  }
  ++failed;
  if (errors.size() < 4) errors.push_back("reply: " + reply.substr(0, 160));
}

void ReplyLog::ReportFailures(Tally* tally, size_t planned) const {
  tally->Attempt(planned);
  for (const std::string& e : errors) tally->Note(e);
  if (failed > 0) tally->Fail("ok:false replies", failed);
  const uint64_t answered = acked_ok + failed;
  if (answered < planned) {
    tally->Fail("requests without a reply", planned - answered);
  }
}

void OpenLoopConnection(const std::string& socket_path, Clock::time_point t0,
                        const std::vector<Scheduled>& plan,
                        const LineBatch& lines, OpenLoopResult* out) {
  LineClient client(socket_path);
  if (!client.connected()) {
    out->errors.push_back("open-loop connection failed");
    return;
  }
  const size_t n = plan.size();
  out->late_us.assign(n, 0.0);
  out->sent_s.assign(n, 0.0);
  out->reply_s.reserve(n);
  std::thread sender([&] {
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(plan[i].due));
      std::this_thread::sleep_until(due);
      const Clock::time_point now = Clock::now();
      out->late_us[i] = SecondsBetween(due, now) * 1e6;
      out->sent_s[i] = SecondsBetween(t0, now);
      if (!client.Send(lines.Line(plan[i].line))) return;
    }
  });
  std::string reply;
  for (size_t i = 0; i < n; ++i) {
    if (!client.ReadLine(&reply)) break;
    out->reply_s.push_back(SecondsSince(t0));
    out->AckReply(reply);
  }
  sender.join();
}

void ClosedLoopWriter(const std::string& socket_path, const LineBatch& lines,
                      ConnectionResult* out) {
  LineClient client(socket_path);
  if (!client.connected()) {
    out->errors.push_back("writer could not connect");
    return;
  }
  const size_t n = lines.size();
  std::vector<Clock::time_point> sent_at(n);
  out->latency_us.reserve(n);
  out->seqs.reserve(n);
  size_t next_send = 0, next_ack = 0;
  std::string reply;
  out->start = Clock::now();
  while (next_ack < n) {
    if (next_send < n && next_send - next_ack <= kPipelineDepth / 2) {
      const size_t end = std::min(n, next_ack + kPipelineDepth);
      const Clock::time_point now = Clock::now();
      for (size_t i = next_send; i < end; ++i) sent_at[i] = now;
      if (!client.Send(lines.Range(next_send, end))) break;
      next_send = end;
    }
    if (!client.ReadLine(&reply)) break;
    const Clock::time_point now = Clock::now();
    out->latency_us.push_back(SecondsBetween(sent_at[next_ack], now) * 1e6);
    out->AckReply(reply);
    ++next_ack;
  }
  out->end = Clock::now();
}

MixedPlan BuildMixedPlan(const SeededStream& s, double seconds,
                         uint64_t seed) {
  MixedPlan plan;
  const double spacing = 2.0 / kMixedRespPerS;  // per writer
  for (size_t k = 0; k < 2; ++k) {
    for (size_t i = 0; i < s.writer_lines[k].size(); ++i) {
      const double due =
          (static_cast<double>(i) + 0.5 * static_cast<double>(k)) * spacing;
      if (due >= seconds) break;
      plan.writer[k].push_back({due, i, Scheduled::kResp});
    }
  }
  crowd::Random rng(seed ^ 0x5eedULL);
  for (size_t i = 0;; ++i) {
    const double due = (static_cast<double>(i) + 0.25) / kMixedEvalPerS;
    if (due >= seconds) break;
    plan.reader.push_back({due, plan.reader_lines.size(), Scheduled::kEval});
    plan.reader_lines.Add("EVAL " + std::to_string(rng.UniformInt(
                                        s.crowd.matrix.num_workers())) +
                          "\n");
  }
  for (size_t j = 0;; ++j) {
    const double due = (static_cast<double>(j) + 0.5) * kMixedEvalAllPeriodS;
    if (due >= seconds) break;
    plan.reader.push_back(
        {due, plan.reader_lines.size(), Scheduled::kEvalAll});
    plan.reader_lines.Add("EVAL_ALL\n");
  }
  std::sort(plan.reader.begin(), plan.reader.end(),
            [](const Scheduled& a, const Scheduled& b) {
              return a.due < b.due;
            });
  return plan;
}

uint64_t CountDuplicates(std::vector<uint64_t>* seqs) {
  std::sort(seqs->begin(), seqs->end());
  const auto unique_end = std::unique(seqs->begin(), seqs->end());
  return static_cast<uint64_t>(seqs->end() - unique_end);
}

}  // namespace perfbench
