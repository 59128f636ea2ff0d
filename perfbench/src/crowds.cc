#include "crowds.h"

#include <cmath>
#include <cstdio>

#include "common.h"
#include "rng/random.h"
#include "server/protocol.h"
#include "server/service.h"
#include "sim/simulator.h"

namespace perfbench {

using crowd::data::ResponseMatrix;

BinaryCrowd MakeBinaryCrowd(size_t workers, size_t tasks, double density,
                            uint64_t seed) {
  crowd::sim::BinarySimConfig config;
  config.num_workers = workers;
  config.num_tasks = tasks;
  config.assignment = crowd::sim::AssignmentConfig::Iid(density);
  crowd::Random rng(seed);
  crowd::sim::BinarySimOutput out = crowd::sim::SimulateBinary(config, &rng);
  return BinaryCrowd{out.dataset.responses(),
                     std::move(out.true_error_rates)};
}

KaryCrowd MakeKaryCrowd(size_t workers, size_t tasks, double density,
                        uint64_t seed) {
  crowd::sim::KarySimConfig config;
  config.num_workers = workers;
  config.num_tasks = tasks;
  config.arity = 3;
  config.assignment = crowd::sim::AssignmentConfig::Iid(density);
  crowd::Random rng(seed);
  auto out = crowd::sim::SimulateKary(config, &rng);
  if (!out.ok()) Die("SimulateKary: " + out.status().ToString());
  return KaryCrowd{out->dataset.responses(), std::move(out->true_matrices)};
}

std::vector<Cell> CellsInTaskOrder(const ResponseMatrix& m,
                                   size_t task_begin, size_t task_end,
                                   size_t worker_begin, size_t worker_end) {
  std::vector<Cell> cells;
  for (size_t t = task_begin; t < task_end; ++t) {
    for (size_t w = worker_begin; w < worker_end; ++w) {
      auto v = m.Get(w, t);
      if (v.has_value()) {
        cells.push_back(
            Cell{static_cast<uint32_t>(w), static_cast<uint32_t>(t), *v});
      }
    }
  }
  return cells;
}

uint64_t WriteSeededDir(const BinaryCrowd& crowd, size_t snapshot_tasks,
                        size_t seeded_tasks, const std::string& dir) {
  crowd::server::ServiceOptions options;
  options.num_workers = crowd.matrix.num_workers();
  options.num_tasks = crowd.matrix.num_tasks();
  options.data_dir = dir;
  auto service = crowd::server::Service::Open(options);
  if (!service.ok()) Die("seed Service::Open: " + service.status().ToString());
  const size_t m = crowd.matrix.num_workers();
  auto ingest = [&](size_t begin, size_t end) {
    uint64_t n = 0;
    for (const Cell& c : CellsInTaskOrder(crowd.matrix, begin, end, 0, m)) {
      auto st = (*service)->Ingest(c.worker, c.task, c.value);
      if (!st.ok()) Die("seed ingest: " + st.ToString());
      ++n;
    }
    return n;
  };
  ingest(0, snapshot_tasks);
  auto snap = (*service)->TakeSnapshot();
  if (!snap.ok()) Die("seed snapshot: " + snap.status().ToString());
  return ingest(snapshot_tasks, seeded_tasks);
}

double BinaryCoverageGap(
    const std::vector<crowd::core::WorkerAssessment>& assessments,
    const std::vector<double>& truth, double nominal) {
  if (assessments.empty()) return nominal;
  size_t covered = 0;
  for (const auto& a : assessments) {
    if (a.interval.Contains(truth[a.worker])) ++covered;
  }
  return std::fabs(nominal - static_cast<double>(covered) /
                                 static_cast<double>(assessments.size()));
}

double KaryCoverageGap(
    const std::vector<crowd::core::KaryWorkerAssessment>& assessments,
    const std::vector<crowd::linalg::Matrix>& truth, double nominal) {
  size_t covered = 0, total = 0;
  for (const auto& a : assessments) {
    const auto& planted = truth[a.worker];
    for (size_t r = 0; r < a.intervals.size(); ++r) {
      for (size_t c = 0; c < a.intervals[r].size(); ++c) {
        ++total;
        if (a.intervals[r][c].Contains(planted(r, c))) ++covered;
      }
    }
  }
  if (total == 0) return nominal;
  return std::fabs(nominal - static_cast<double>(covered) /
                                 static_cast<double>(total));
}

bool TriplesMatchPool(
    const std::vector<crowd::core::WorkerAssessment>& assessments,
    size_t num_workers) {
  if (assessments.empty()) return false;
  double triples = 0.0;
  for (const auto& a : assessments) {
    triples += static_cast<double>(a.num_triples);
  }
  const double per_worker = triples / static_cast<double>(assessments.size());
  return per_worker >= 0.9 * static_cast<double>(num_workers - 1) / 2.0;
}

std::string KaryResultBodyJson(const crowd::core::KaryMWorkerResult& r) {
  using crowd::server::JsonDouble;
  std::string out = "\"assessments\":[";
  for (size_t i = 0; i < r.assessments.size(); ++i) {
    const auto& a = r.assessments[i];
    out += (i == 0 ? "" : ",");
    out += "{\"worker\":" + std::to_string(a.worker) +
           ",\"num_triples\":" + std::to_string(a.num_triples) + ",\"p\":[";
    for (size_t row = 0; row < a.p.rows(); ++row) {
      for (size_t col = 0; col < a.p.cols(); ++col) {
        const auto& ci = a.intervals[row][col];
        out += (row + col == 0 ? "" : ",");
        out += "[" + JsonDouble(a.p(row, col)) + "," + JsonDouble(ci.lo) +
               "," + JsonDouble(ci.hi) + "]";
      }
    }
    out += "]}";
  }
  out += "],\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    out += (i == 0 ? "" : ",");
    out += crowd::server::FailureJson(r.failures[i].first,
                                      r.failures[i].second);
  }
  return out + "]";
}

std::string RespLine(const Cell& cell) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "RESP %u %u %d\n", cell.worker,
                cell.task, cell.value);
  return buffer;
}

}  // namespace perfbench
