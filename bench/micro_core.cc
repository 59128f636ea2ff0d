// Microbenchmarks (google-benchmark) validating the complexity claims
// of the paper: the 3-worker method is O(n); the m-worker method is
// O(m^2 n + m^4); the k-ary method is O(k^6 + n k^3) per triple
// (dominated in practice by the (k+1)^3-cell numerical Jacobian, each
// cell costing two spectral estimates).
//
// The BM_Obs* group prices the observability hot paths (src/obs/):
// the gate check when metrics are off, a counter increment, a
// histogram record, and a scoped span in both tracer states. These
// bound what instrumenting a pipeline stage costs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "baselines/dawid_skene.h"
#include "baselines/old_technique.h"
#include "core/kary_estimator.h"
#include "core/m_worker.h"
#include "core/three_worker.h"
#include "core/triple_combiner.h"
#include "core/triple_selection.h"
#include "data/overlap_index.h"
#include "linalg/cholesky.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rng/random.h"
#include "sim/simulator.h"
#include "util/bitops.h"

namespace crowd {
namespace {

sim::BinarySimOutput MakeBinary(size_t m, size_t n, double density) {
  Random rng(42 + m * 131 + n);
  sim::BinarySimConfig config;
  config.num_workers = m;
  config.num_tasks = n;
  if (density < 1.0) {
    config.assignment = sim::AssignmentConfig::Iid(density);
  }
  return sim::SimulateBinary(config, &rng);
}

void BM_ThreeWorker(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto sim = MakeBinary(3, n, 1.0);
  core::BinaryOptions options;
  for (auto _ : state) {
    auto result = core::ThreeWorkerEvaluate(sim.dataset.responses(),
                                            options);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_ThreeWorker)->RangeMultiplier(4)->Range(64, 16384)
    ->Complexity(benchmark::oN);

void BM_MWorker(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  auto sim = MakeBinary(m, 300, 0.8);
  core::BinaryOptions options;
  for (auto _ : state) {
    auto result = core::MWorkerEvaluate(sim.dataset.responses(), options);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_MWorker)->DenseRange(5, 45, 10)->Complexity();

// Lemma 4 alone, the layer that dominates Algorithm A2 at scale: one
// worker's CrossTripleCovariance per iteration, cycling through all
// workers of a 200 x 2000 crowd at density 0.3 (the perfbench
// batch_binary shape), so the mean time is the per-worker cost.
void BM_CrossTripleCovariance(benchmark::State& state) {
  auto sim = MakeBinary(200, 2000, 0.3);
  data::OverlapIndex overlap(sim.dataset.responses());
  core::BinaryOptions options;
  std::vector<std::vector<core::TripleEstimate>> per_worker;
  for (data::WorkerId w = 0; w < 200; ++w) {
    std::vector<core::TripleEstimate> triples;
    for (const auto& [j1, j2] : core::GreedyPairs(overlap, w)) {
      auto t = core::EvaluateTriple(overlap, w, j1, j2, options);
      if (t.ok()) triples.push_back(std::move(*t));
    }
    if (!triples.empty()) per_worker.push_back(std::move(triples));
  }
  size_t next = 0;
  for (auto _ : state) {
    auto cov =
        core::CrossTripleCovariance(per_worker[next], overlap, options);
    benchmark::DoNotOptimize(cov);
    next = (next + 1) % per_worker.size();
  }
}
BENCHMARK(BM_CrossTripleCovariance)->Unit(benchmark::kMicrosecond);

// SharedAttemptRows' gather alone: 196 peer rows (2l at l = 98)
// compacted to one worker's tasks, 200 x 2000 at density 0.3. Arg 0 is
// the portable gather, arg 1 the dispatched one (PEXT where the CPU has
// BMI2), so the pair prices the fallback.
void BM_GatherBits(benchmark::State& state) {
  auto sim = MakeBinary(200, 2000, 0.3);
  const auto& m = sim.dataset.responses();
  const size_t words = (m.num_tasks() + 63) / 64;
  std::vector<uint64_t> attempts(m.num_workers() * words, 0);
  for (data::WorkerId w = 0; w < m.num_workers(); ++w) {
    for (data::TaskId t = 0; t < m.num_tasks(); ++t) {
      if (m.Has(w, t)) attempts[w * words + t / 64] |= uint64_t{1} << (t % 64);
    }
  }
  auto gather = state.range(0) == 0 ? util::bitops_internal::GatherBitsPortable
                                    : util::GatherBits;
  std::vector<uint64_t> out(words);
  for (auto _ : state) {
    for (size_t row = 0; row < 196; ++row) {
      const data::WorkerId p = 1 + row % (m.num_workers() - 1);
      gather(attempts.data() + p * words, attempts.data(), words,
             out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GatherBits)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Lemma 4's pair table alone: c_{i,a,b} for every pair of 196 peer rows
// of 10 words (2l at l = 98, |T_i| ~ 600 tasks). Arg 0 is the POPCNT
// variant, arg 1 the dispatched one (AVX-512 VPOPCNTQ where the CPU has
// it).
void BM_AndPopcountPairs(benchmark::State& state) {
  constexpr size_t kRows = 196;
  constexpr size_t kWords = 10;
  Random rng(196);
  std::vector<uint64_t> rows(kRows * kWords);
  for (uint64_t& word : rows) {
    for (int bit = 0; bit < 64; ++bit) {
      if (rng.Bernoulli(0.3)) word |= uint64_t{1} << bit;
    }
  }
  if (state.range(0) == 0 && !util::bitops_internal::HasPopcnt()) {
    state.SkipWithError("no POPCNT variant on this CPU");
    return;
  }
  auto pairs = state.range(0) == 0
                   ? util::bitops_internal::AndPopcountPairsPopcnt
                   : util::AndPopcountPairs;
  std::vector<uint32_t> table(kRows * kRows);
  for (auto _ : state) {
    pairs(rows.data(), kRows, kWords, table.data());
    benchmark::DoNotOptimize(table.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AndPopcountPairs)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Lemma 5's linear algebra alone: factor and solve C w = 1 for a random
// SPD matrix of order l (98 is the triples per worker of the 200 x 2000
// crowd above).
void BM_Cholesky(benchmark::State& state) {
  const size_t l = static_cast<size_t>(state.range(0));
  Random rng(98);
  linalg::Matrix b(l, l);
  for (size_t i = 0; i < l; ++i) {
    for (size_t j = 0; j < l; ++j) b(i, j) = rng.Uniform(-1, 1);
  }
  linalg::Matrix c = b * b.Transposed();
  for (size_t i = 0; i < l; ++i) c(i, i) += 0.5;
  const linalg::Vector ones(l, 1.0);
  for (auto _ : state) {
    auto chol = linalg::CholeskyDecomposition::Compute(c);
    auto x = chol->Solve(ones);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Cholesky)->Arg(98)->Unit(benchmark::kMicrosecond);

void BM_OverlapIndexBuild(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  auto sim = MakeBinary(m, 500, 0.5);
  for (auto _ : state) {
    data::OverlapIndex overlap(sim.dataset.responses());
    benchmark::DoNotOptimize(overlap.CommonCount(0, 1));
  }
}
BENCHMARK(BM_OverlapIndexBuild)->DenseRange(10, 90, 20);

// A diagonally-dominant random pool for arities beyond the paper's
// 2-4 range.
std::vector<linalg::Matrix> PoolForArity(int arity, Random* rng) {
  if (arity <= 4) return {};  // SimulateKary falls back to the paper pool.
  std::vector<linalg::Matrix> pool;
  for (int i = 0; i < 3; ++i) {
    pool.push_back(sim::RandomResponseMatrix(arity, 0.6, 0.9, rng));
  }
  return pool;
}

void BM_KaryEvaluate(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  Random rng(7 + arity);
  sim::KarySimConfig config;
  config.arity = arity;
  config.num_tasks = 500;
  config.matrix_pool = PoolForArity(arity, &rng);
  auto sim = sim::SimulateKary(config, &rng);
  sim.status().AbortIfNotOk();
  core::KaryOptions options;
  for (auto _ : state) {
    auto result =
        core::KaryEvaluate(sim->dataset.responses(), 0, 1, 2, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KaryEvaluate)->DenseRange(2, 5, 1);

void BM_KaryPointEstimateOnly(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  Random rng(7 + arity);
  sim::KarySimConfig config;
  config.arity = arity;
  config.num_tasks = 500;
  config.matrix_pool = PoolForArity(arity, &rng);
  auto sim = sim::SimulateKary(config, &rng);
  sim.status().AbortIfNotOk();
  auto counts = core::CountsTensor::FromResponses(
      sim->dataset.responses(), 0, 1, 2);
  counts.status().AbortIfNotOk();
  for (auto _ : state) {
    auto result = core::ProbEstimate(*counts);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KaryPointEstimateOnly)->DenseRange(2, 6, 1);

void BM_OldTechnique(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  auto sim = MakeBinary(m, 100, 1.0);
  baselines::OldTechniqueOptions options;
  for (auto _ : state) {
    auto result =
        baselines::OldMWorkerEvaluate(sim.dataset.responses(), options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_OldTechnique)->Arg(3)->Arg(7)->Arg(15);

void BM_DawidSkene(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  auto sim = MakeBinary(m, 300, 0.8);
  for (auto _ : state) {
    auto model = baselines::FitDawidSkene(sim.dataset.responses());
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_DawidSkene)->Arg(7)->Arg(21);

// ---- observability hot paths ----------------------------------------
// Each benchmark mirrors the exact instrumentation-site pattern
// (registry gate + function-local-static handle) so the number is what
// a real call site pays, then restores the global off state.

void BM_ObsGateDisabled(benchmark::State& state) {
  obs::DisableMetrics();
  for (auto _ : state) {
    if (obs::Registry* r = obs::MetricsRegistry()) {
      benchmark::DoNotOptimize(r);
    }
  }
}
BENCHMARK(BM_ObsGateDisabled);

void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::EnableMetrics();
  for (auto _ : state) {
    if (obs::Registry* r = obs::MetricsRegistry()) {
      static obs::Counter* const counter = r->GetCounter(
          "crowdeval_bench_increments_total", "bench counter");
      counter->Increment();
    }
  }
  obs::DisableMetrics();
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::EnableMetrics();
  double value = 1e-5;
  for (auto _ : state) {
    if (obs::Registry* r = obs::MetricsRegistry()) {
      static obs::HistogramMetric* const hist =
          r->GetHistogram("crowdeval_bench_record_seconds",
                          "bench histogram", obs::Histogram::LatencyBounds());
      hist->Record(value);
    }
    value += 1e-8;  // defeat a constant-folded bucket search
  }
  obs::DisableMetrics();
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    CROWD_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::StartTracing();
  for (auto _ : state) {
    CROWD_SPAN("bench.enabled");
    benchmark::ClobberMemory();
  }
  obs::StopTracing();
}
BENCHMARK(BM_ObsSpanEnabled);

}  // namespace
}  // namespace crowd

BENCHMARK_MAIN();
