// Tests for Algorithm A2's machinery: greedy/random triple selection,
// Lemma 4 cross-triple covariances, Lemma 5 minimum-variance weights
// and the m-worker orchestration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/agreement.h"
#include "core/m_worker.h"
#include "core/three_worker.h"
#include "core/triple_combiner.h"
#include "core/triple_selection.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "sim/simulator.h"
#include "util/cpu.h"

namespace crowd::core {
namespace {

data::ResponseMatrix UniformMatrix(size_t m, size_t n) {
  data::ResponseMatrix matrix(m, n, 2);
  for (data::WorkerId w = 0; w < m; ++w) {
    for (data::TaskId t = 0; t < n; ++t) {
      matrix.Set(w, t, 0).AbortIfNotOk();
    }
  }
  return matrix;
}

TEST(TripleSelection, GreedyPairsAllPeersOnRegularData) {
  auto matrix = UniformMatrix(7, 20);
  data::OverlapIndex overlap(matrix);
  auto pairs = GreedyPairs(overlap, 0);
  ASSERT_EQ(pairs.size(), 3u);  // 6 peers -> 3 pairs.
  std::set<data::WorkerId> used;
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_TRUE(used.insert(a).second);
    EXPECT_TRUE(used.insert(b).second);
  }
}

TEST(TripleSelection, GreedyPrefersHighOverlapPeers) {
  // Worker 0 overlaps a lot with 1 and 2, little with 3 and 4.
  data::ResponseMatrix m(5, 100, 2);
  for (data::TaskId t = 0; t < 100; ++t) m.Set(0, t, 0).AbortIfNotOk();
  for (data::TaskId t = 0; t < 90; ++t) {
    m.Set(1, t, 0).AbortIfNotOk();
    m.Set(2, t, 0).AbortIfNotOk();
  }
  for (data::TaskId t = 0; t < 10; ++t) {
    m.Set(3, t, 0).AbortIfNotOk();
    m.Set(4, t, 0).AbortIfNotOk();
  }
  data::OverlapIndex overlap(m);
  auto pairs = GreedyPairs(overlap, 0);
  ASSERT_GE(pairs.size(), 1u);
  // First pair is built from the highest-overlap peers.
  EXPECT_TRUE(pairs[0].first == 1 || pairs[0].first == 2);
  EXPECT_TRUE(pairs[0].second == 1 || pairs[0].second == 2);
}

TEST(TripleSelection, PeersWithoutOverlapAreDropped) {
  data::ResponseMatrix m(4, 20, 2);
  for (data::TaskId t = 0; t < 20; ++t) {
    m.Set(0, t, 0).AbortIfNotOk();
    m.Set(1, t, 0).AbortIfNotOk();
    m.Set(2, t, 0).AbortIfNotOk();
  }
  // Worker 3 answered nothing.
  data::OverlapIndex overlap(m);
  auto pairs = GreedyPairs(overlap, 0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0] == WorkerPair(1, 2) ||
              pairs[0] == WorkerPair(2, 1));
}

TEST(TripleSelection, RandomPairsAreValidAndSeedDependent) {
  auto matrix = UniformMatrix(9, 20);
  data::OverlapIndex overlap(matrix);
  auto pairs1 = RandomPairs(overlap, 0, 1);
  auto pairs2 = RandomPairs(overlap, 0, 2);
  EXPECT_EQ(pairs1.size(), 4u);
  EXPECT_EQ(pairs2.size(), 4u);
  EXPECT_NE(pairs1, pairs2);  // Overwhelmingly likely.
  std::set<data::WorkerId> used;
  for (const auto& [a, b] : pairs1) {
    EXPECT_TRUE(used.insert(a).second);
    EXPECT_TRUE(used.insert(b).second);
  }
}

// The greedy pairing as the m-worker k-ary evaluation spelled it out
// before it shared GreedyPairs: threshold `min_overlap` on both the
// candidate filter and the partner test.
std::vector<WorkerPair> ReferenceThresholdPairs(
    const data::OverlapIndex& overlap, data::WorkerId target,
    size_t min_overlap) {
  std::vector<data::WorkerId> candidates;
  for (data::WorkerId v = 0; v < overlap.num_workers(); ++v) {
    if (v != target && overlap.CommonCount(target, v) >= min_overlap) {
      candidates.push_back(v);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](data::WorkerId a, data::WorkerId b) {
                     return overlap.CommonCount(target, a) >
                            overlap.CommonCount(target, b);
                   });
  std::vector<WorkerPair> pairs;
  while (candidates.size() >= 2) {
    size_t partner = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
      if (overlap.CommonCount(candidates[0], candidates[i]) >= min_overlap) {
        partner = i;
        break;
      }
    }
    if (partner != 0) {
      pairs.emplace_back(candidates[0], candidates[partner]);
      candidates.erase(candidates.begin() + static_cast<long>(partner));
    }
    candidates.erase(candidates.begin());
  }
  return pairs;
}

// A sparse pool whose pairwise overlaps spread over roughly 5..35
// tasks, so every threshold below drops some peers and not others.
data::ResponseMatrix SparsePool() {
  Random rng(41);
  sim::BinarySimConfig config;
  config.num_workers = 24;
  config.num_tasks = 200;
  config.assignment = sim::AssignmentConfig::Iid(0.3);
  return sim::SimulateBinary(config, &rng).dataset.responses();
}

TEST(TripleSelection, GreedyThresholdMatchesReferenceAtEveryThreshold) {
  data::ResponseMatrix matrix = SparsePool();
  data::OverlapIndex overlap(matrix);
  for (size_t min_overlap : {0, 1, 2, 10, 15, 20, 30, 1000}) {
    for (data::WorkerId w = 0; w < matrix.num_workers(); ++w) {
      EXPECT_EQ(GreedyPairs(overlap, w, min_overlap),
                ReferenceThresholdPairs(overlap, w, min_overlap))
          << "worker " << w << ", min_overlap " << min_overlap;
    }
  }
}

TEST(TripleSelection, GreedyDefaultThresholdIsOneTask) {
  data::ResponseMatrix matrix = SparsePool();
  data::OverlapIndex overlap(matrix);
  for (data::WorkerId w = 0; w < matrix.num_workers(); ++w) {
    EXPECT_EQ(GreedyPairs(overlap, w), GreedyPairs(overlap, w, 1));
  }
}

TEST(TripleSelection, GreedyThresholdHoldsForEveryPair) {
  data::ResponseMatrix matrix = SparsePool();
  data::OverlapIndex overlap(matrix);
  for (size_t min_overlap : {2, 15, 20}) {
    size_t total_pairs = 0;
    for (data::WorkerId w = 0; w < matrix.num_workers(); ++w) {
      for (const auto& [a, b] : GreedyPairs(overlap, w, min_overlap)) {
        EXPECT_GE(overlap.CommonCount(w, a), min_overlap);
        EXPECT_GE(overlap.CommonCount(w, b), min_overlap);
        EXPECT_GE(overlap.CommonCount(a, b), min_overlap);
        ++total_pairs;
      }
    }
    EXPECT_GT(total_pairs, 0u) << "min_overlap " << min_overlap;
  }
}

TEST(Weights, LemmaFiveClosedFormDiagonal) {
  // For a diagonal covariance the optimal weights are proportional to
  // the inverse variances.
  linalg::Matrix cov = linalg::Matrix::Diagonal({1.0, 4.0});
  auto solution = MinimumVarianceWeights(cov, 0.0);
  EXPECT_FALSE(solution.used_fallback);
  EXPECT_NEAR(solution.weights[0], 0.8, 1e-10);
  EXPECT_NEAR(solution.weights[1], 0.2, 1e-10);
}

TEST(Weights, SumToOneAndBeatUniform) {
  Random rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    size_t l = 2 + rng.UniformInt(5);
    // Random PSD covariance: B B^T + diag.
    linalg::Matrix b(l, l);
    for (size_t i = 0; i < l; ++i) {
      for (size_t j = 0; j < l; ++j) b(i, j) = rng.Uniform(-1, 1);
    }
    linalg::Matrix cov = b * b.Transposed();
    for (size_t i = 0; i < l; ++i) cov(i, i) += 0.5;

    auto solution = MinimumVarianceWeights(cov, 1e-12);
    double sum = 0.0;
    for (double w : solution.weights) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-9);

    auto variance = [&](const linalg::Vector& w) {
      double v = 0.0;
      for (size_t i = 0; i < l; ++i) {
        for (size_t j = 0; j < l; ++j) v += w[i] * w[j] * cov(i, j);
      }
      return v;
    };
    linalg::Vector uniform(l, 1.0 / static_cast<double>(l));
    EXPECT_LE(variance(solution.weights), variance(uniform) + 1e-9);
  }
}

TEST(Weights, SingularCovarianceFallsBackToUniform) {
  linalg::Matrix cov(2, 2, 0.0);  // All-zero: singular even with ridge 0.
  auto solution = MinimumVarianceWeights(cov, 0.0);
  EXPECT_TRUE(solution.used_fallback);
  EXPECT_NEAR(solution.weights[0], 0.5, 1e-12);
}

TEST(Combiner, RejectsMixedWorkersAndEmpty) {
  auto matrix = UniformMatrix(5, 30);
  data::OverlapIndex overlap(matrix);
  BinaryOptions options;
  EXPECT_TRUE(CombineTriples({}, overlap, options)
                  .status()
                  .IsInsufficientData());
}

TEST(Combiner, SingleTripleMatchesThreeWorkerDeviation) {
  Random rng(7);
  sim::BinarySimConfig config;
  config.num_workers = 3;
  config.num_tasks = 500;
  auto sim = sim::SimulateBinary(config, &rng);
  data::OverlapIndex overlap(sim.dataset.responses());
  BinaryOptions options;
  auto triple = EvaluateTriple(overlap, 0, 1, 2, options);
  ASSERT_TRUE(triple.ok());
  auto combined = CombineTriples({*triple}, overlap, options);
  ASSERT_TRUE(combined.ok());
  EXPECT_NEAR(combined->p, triple->p, 1e-12);
  EXPECT_NEAR(combined->deviation, triple->deviation, 1e-12);
}

TEST(Combiner, OptimalWeightsNeverWorseThanUniform) {
  Random rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    sim::BinarySimConfig config;
    config.num_workers = 9;
    config.num_tasks = 120;
    config.assignment = sim::AssignmentConfig::PaperHeterogeneous(9);
    Random stream = rng.Fork();
    auto sim = sim::SimulateBinary(config, &stream);
    data::OverlapIndex overlap(sim.dataset.responses());

    BinaryOptions optimal;
    optimal.weights = WeightScheme::kOptimal;
    BinaryOptions uniform;
    uniform.weights = WeightScheme::kUniform;
    auto a = EvaluateWorker(overlap, 0, optimal);
    auto b = EvaluateWorker(overlap, 0, uniform);
    if (!a.ok() || !b.ok()) continue;
    EXPECT_LE(a->deviation, b->deviation + 1e-9);
  }
}

// ---- Lemma 4 covariance: bit identity with the per-visit formula ----

// What the reference saw while recomputing one covariance matrix.
struct ReferenceVisits {
  size_t zero_triple = 0;  // visits with c_{i,a,b} == 0
  size_t clamped = 0;      // visits whose q_{a,b} was clamped
  std::set<size_t> sizes;  // triple counts l of the checked workers
};

// Lemma 4 as first written: one TripleCommonCount and one
// ComputePairAgreement per visit, terms (j1,j1), (j1,j2), (j2,j1),
// (j2,j2) summed in that order.
linalg::Matrix ReferenceCovariance(const std::vector<TripleEstimate>& triples,
                                   const data::OverlapIndex& overlap,
                                   const BinaryOptions& options,
                                   ReferenceVisits* visits) {
  const size_t l = triples.size();
  const data::WorkerId i = triples[0].i;
  linalg::Matrix cov(l, l);
  for (size_t k1 = 0; k1 < l; ++k1) {
    cov(k1, k1) = triples[k1].deviation * triples[k1].deviation;
    for (size_t k2 = k1 + 1; k2 < l; ++k2) {
      const TripleEstimate& a = triples[k1];
      const TripleEstimate& b = triples[k2];
      double p_i = 0.5 * (a.p + b.p);
      double sum = 0.0;
      const std::pair<double, data::WorkerId> sa[] = {{a.d_i_j1, a.j1},
                                                      {a.d_i_j2, a.j2}};
      const std::pair<double, data::WorkerId> sb[] = {{b.d_i_j1, b.j1},
                                                      {b.d_i_j2, b.j2}};
      for (const auto& [d_a, j] : sa) {
        for (const auto& [d_b, j_prime] : sb) {
          double c = 0.0;
          size_t c_triple = overlap.TripleCommonCount(i, j, j_prime);
          if (c_triple == 0) {
            ++visits->zero_triple;
          } else {
            auto q = ComputePairAgreement(overlap, j, j_prime,
                                          options.min_agreement_margin);
            EXPECT_TRUE(q.ok());
            if (q->clamped) ++visits->clamped;
            size_t c_ij = overlap.CommonCount(i, j);
            size_t c_ij_prime = overlap.CommonCount(i, j_prime);
            c = static_cast<double>(c_triple) * p_i * (1.0 - p_i) *
                (2.0 * q->q - 1.0) /
                (static_cast<double>(c_ij) * static_cast<double>(c_ij_prime));
          }
          sum += d_a * d_b * c;
        }
      }
      cov(k1, k2) = cov(k2, k1) = sum;
    }
  }
  return cov;
}

// The Lemma 4 term kernels a test can run directly: the portable one,
// and the AVX2 one where the CPU has AVX2.
std::vector<std::pair<std::string, triple_combiner_internal::CovarianceKernel>>
TermKernels() {
  using namespace triple_combiner_internal;
  std::vector<std::pair<std::string, CovarianceKernel>> kernels = {
      {"portable", CovarianceTermsPortable}};
  if (util::CpuHasAvx2()) kernels.emplace_back("avx2", CovarianceTermsAvx2);
  return kernels;
}

void ExpectSameBits(const linalg::Matrix& got, const linalg::Matrix& want,
                    const std::string& where) {
  ASSERT_EQ(got.rows(), want.rows()) << where;
  for (size_t r = 0; r < got.rows(); ++r) {
    for (size_t c = 0; c < got.cols(); ++c) {
      const double g = got(r, c);
      const double w = want(r, c);
      EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
          << where << " entry (" << r << ", " << c << "): " << g << " vs "
          << w;
    }
  }
}

// Checks CrossTripleCovariance, and CrossTripleCovarianceWith each term
// kernel, against the reference for up to ~25 workers of `matrix`
// (evenly strided) that have at least one triple; returns what the
// reference saw. Clamped triples are kept so clamped pairs reach the
// covariance.
ReferenceVisits ExpectCovarianceBitIdentical(
    const data::ResponseMatrix& matrix, const std::string& label) {
  data::OverlapIndex overlap(matrix);
  BinaryOptions options;
  options.singularity = SingularityPolicy::kClampInflate;
  ReferenceVisits visits;
  size_t checked = 0;
  const size_t stride = (matrix.num_workers() + 24) / 25;
  for (data::WorkerId w = 0; w < matrix.num_workers(); w += stride) {
    std::vector<TripleEstimate> triples;
    for (const auto& [j1, j2] : GreedyPairs(overlap, w)) {
      auto t = EvaluateTriple(overlap, w, j1, j2, options);
      if (t.ok()) triples.push_back(std::move(*t));
    }
    if (triples.empty()) continue;
    const std::string where = label + " worker " + std::to_string(w);
    const linalg::Matrix expected =
        ReferenceCovariance(triples, overlap, options, &visits);
    auto cov = CrossTripleCovariance(triples, overlap, options);
    EXPECT_TRUE(cov.ok()) << where;
    if (!cov.ok()) continue;
    ExpectSameBits(*cov, expected, where + " dispatched");
    for (const auto& [name, kernel] : TermKernels()) {
      auto direct = triple_combiner_internal::CrossTripleCovarianceWith(
          kernel, triples, overlap, options);
      EXPECT_TRUE(direct.ok()) << where << " " << name;
      if (direct.ok()) ExpectSameBits(*direct, expected, where + " " + name);
    }
    visits.sizes.insert(triples.size());
    ++checked;
  }
  EXPECT_GT(checked, 0u) << label;
  return visits;
}

TEST(Covariance, BitIdenticalToPerVisitFormulaAcrossSimulatedCrowds) {
  for (size_t m : {7, 40, 200}) {
    for (double density : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      for (uint64_t seed : {1, 2, 3}) {
        Random rng(seed * 1009 + m);
        sim::BinarySimConfig config;
        config.num_workers = m;
        config.num_tasks = 150;
        config.assignment = sim::AssignmentConfig::Iid(density);
        auto sim = sim::SimulateBinary(config, &rng);
        ExpectCovarianceBitIdentical(
            sim.dataset.responses(),
            "m=" + std::to_string(m) + " d=" + std::to_string(density) +
                " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(Covariance, BitIdenticalForEveryTripleCountOneToNine) {
  // 2l + 1 workers at full density pair into l triples each, so every
  // row k1 < l of the (k1, k2) loop leaves l - k1 - 1 entries: every
  // vector-tail length of every kernel occurs.
  for (size_t l = 1; l <= 9; ++l) {
    Random rng(70 + l);
    sim::BinarySimConfig config;
    config.num_workers = 2 * l + 1;
    config.num_tasks = 90;
    config.assignment = sim::AssignmentConfig::Iid(1.0);
    auto sim = sim::SimulateBinary(config, &rng);
    const ReferenceVisits visits = ExpectCovarianceBitIdentical(
        sim.dataset.responses(), "l=" + std::to_string(l));
    EXPECT_EQ(visits.sizes.count(l), 1u) << "l=" << l;
  }
}

TEST(Covariance, BitIdenticalWithClampedPeerPairs) {
  // Spammers near the 1/2 singularity clamp many peer-pair rates.
  Random rng(5);
  sim::BinarySimConfig config;
  config.num_workers = 40;
  config.num_tasks = 120;
  config.pool.spammer_fraction = 0.4;
  config.pool.spammer_lo = 0.48;
  config.pool.spammer_hi = 0.6;
  auto sim = sim::SimulateBinary(config, &rng);
  ReferenceVisits visits =
      ExpectCovarianceBitIdentical(sim.dataset.responses(), "spammers");
  EXPECT_GT(visits.clamped, 0u);
}

TEST(Covariance, BitIdenticalWithZeroTripleCounts) {
  // Worker 0 attempts every task; peers 1-4 only tasks 0-59 and peers
  // 5-8 only tasks 60-119, so a triple of peers from one block shares
  // no task with a peer from the other: c_{0,a,b} = 0.
  data::ResponseMatrix matrix(9, 120, 2);
  for (data::WorkerId w = 0; w < 9; ++w) {
    const data::TaskId lo = w == 0 ? 0 : (w <= 4 ? 0 : 60);
    const data::TaskId hi = w == 0 ? 120 : (w <= 4 ? 60 : 120);
    for (data::TaskId t = lo; t < hi; ++t) {
      // Truth is t % 2; worker w errs on tasks with t % 9 == w.
      const bool wrong = t % 9 == w;
      matrix.Set(w, t, static_cast<data::Response>((t % 2) ^ wrong))
          .AbortIfNotOk();
    }
  }
  ReferenceVisits visits = ExpectCovarianceBitIdentical(matrix, "blocks");
  EXPECT_GT(visits.zero_triple, 0u);
}

// Nine workers over `num_tasks` tasks; truth t % 2, worker w errs on
// tasks with t % 11 == w. Worker 0 attempts the tasks `zero_attempts`
// accepts, every peer w > 0 the tasks with t % 7 != w.
template <typename Pred>
data::ResponseMatrix NineWorkerMatrix(size_t num_tasks, Pred zero_attempts) {
  data::ResponseMatrix matrix(9, num_tasks, 2);
  for (data::WorkerId w = 0; w < 9; ++w) {
    for (data::TaskId t = 0; t < num_tasks; ++t) {
      if (w == 0 ? !zero_attempts(t) : t % 7 == w) continue;
      const bool wrong = t % 11 == w;
      matrix.Set(w, t, static_cast<data::Response>((t % 2) ^ wrong))
          .AbortIfNotOk();
    }
  }
  return matrix;
}

// The width SharedAttemptRows compacts worker 0's peer rows to. Also
// checks that worker 0 pairs into the two or more triples a covariance
// needs, so ExpectCovarianceBitIdentical does not skip it.
size_t CompactedWidth(const data::ResponseMatrix& matrix) {
  data::OverlapIndex overlap(matrix);
  EXPECT_GE(GreedyPairs(overlap, 0).size(), 2u);
  std::vector<uint64_t> rows;
  return overlap.SharedAttemptRows(0, {1, 2}, &rows);
}

TEST(Covariance, BitIdenticalWhenEvaluatedWorkerHasEmptyMaskWords) {
  // Worker 0 attempts tasks [0, 40) and [200, 260) of 300: its words 1
  // and 2 (tasks 64-191) are empty and its last word is ragged, so 100
  // tasks compact from 5 words to 2.
  auto matrix = NineWorkerMatrix(
      300, [](data::TaskId t) { return t < 40 || (t >= 200 && t < 260); });
  ASSERT_EQ(CompactedWidth(matrix), 2u);
  ExpectCovarianceBitIdentical(matrix, "empty words");
}

TEST(Covariance, BitIdenticalWhenEvaluatedWorkerFillsWholeWords) {
  // Worker 0 attempts the 128 tasks below 192 with t % 3 != 0: its
  // compacted rows are exactly two full words, with no padding.
  auto matrix = NineWorkerMatrix(
      200, [](data::TaskId t) { return t < 192 && t % 3 != 0; });
  ASSERT_EQ(data::OverlapIndex(matrix).CommonCount(0, 0), 128u);
  ASSERT_EQ(CompactedWidth(matrix), 2u);
  ExpectCovarianceBitIdentical(matrix, "whole words");
}

// ---- The clamp counter ------------------------------------------------

TEST(ClampCounter, CountsOncePerTriplePairRead) {
  // Full density, truth t % 2. Workers 0-3 err on disjoint tenths of
  // the tasks (q = 0.8 between them); worker 4 is always wrong, so
  // every pair with worker 4 has q = 0.1 and is clamped.
  constexpr size_t kWorkers = 5;
  data::ResponseMatrix matrix(kWorkers, 100, 2);
  for (data::WorkerId w = 0; w < kWorkers; ++w) {
    for (data::TaskId t = 0; t < 100; ++t) {
      const bool wrong = w == 4 || t % 10 == w;
      matrix.Set(w, t, static_cast<data::Response>((t % 2) ^ wrong))
          .AbortIfNotOk();
    }
  }
  BinaryOptions options;
  options.singularity = SingularityPolicy::kClampInflate;
  // Each worker gets two triples. Worker 4's both read two clamped
  // pairs; every other worker has one triple with worker 4, reading
  // (w, 4) and (peer, 4). Lemma 4 also visits peer pairs with worker 4
  // across triples, which must not count.
  constexpr uint64_t kClampedReads = 2 * 2 + 4 * 2;
  {
    data::OverlapIndex overlap(matrix);
    uint64_t enumerated = 0;
    for (data::WorkerId w = 0; w < kWorkers; ++w) {
      auto pairs = GreedyPairs(overlap, w);
      ASSERT_EQ(pairs.size(), 2u);
      for (const auto& [j1, j2] : pairs) {
        for (auto [a, b] : {std::pair{w, j1}, std::pair{w, j2},
                            std::pair{j1, j2}}) {
          enumerated += ComputePairAgreement(overlap, a, b,
                                             options.min_agreement_margin)
                            ->clamped;
        }
      }
    }
    ASSERT_EQ(enumerated, kClampedReads);
  }
  obs::EnableMetrics();
  // The first pass creates the counter with its own help text.
  ASSERT_TRUE(MWorkerEvaluate(matrix, options).ok());
  obs::Counter* clamped = obs::MetricsRegistry()->GetCounter(
      "crowdeval_core_agreement_clamped_total", "");
  const uint64_t before = clamped->Value();
  ASSERT_TRUE(MWorkerEvaluate(matrix, options).ok());
  const uint64_t delta = clamped->Value() - before;
  obs::DisableMetrics();
  EXPECT_EQ(delta, kClampedReads);
}

TEST(MWorker, FailsBelowThreeWorkers) {
  BinaryOptions options;
  EXPECT_TRUE(MWorkerEvaluate(UniformMatrix(2, 10), options)
                  .status()
                  .IsInsufficientData());
}

TEST(MWorker, IsolatedWorkerReportedAsFailure) {
  Random rng(11);
  sim::BinarySimConfig config;
  config.num_workers = 5;
  config.num_tasks = 200;
  auto sim = sim::SimulateBinary(config, &rng);
  // Worker 4 loses all responses.
  for (data::TaskId t = 0; t < 200; ++t) {
    sim.dataset.mutable_responses()->Clear(4, t);
  }
  BinaryOptions options;
  auto result = MWorkerEvaluate(sim.dataset.responses(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->assessments.size(), 4u);
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_EQ(result->failures[0].first, 4u);
  EXPECT_TRUE(result->failures[0].second.IsInsufficientData());
}

TEST(MWorker, MoreWorkersTightenIntervals) {
  // With the same n, more peers -> more triples -> smaller deviation.
  Random rng(13);
  double dev_small_pool = 0.0, dev_large_pool = 0.0;
  int counted = 0;
  for (int trial = 0; trial < 15; ++trial) {
    sim::BinarySimConfig config;
    config.num_tasks = 200;
    config.num_workers = 3;
    Random s1 = rng.Fork();
    auto small_sim = sim::SimulateBinary(config, &s1);
    config.num_workers = 11;
    Random s2 = rng.Fork();
    auto large_sim = sim::SimulateBinary(config, &s2);
    BinaryOptions options;
    auto small = MWorkerEvaluate(small_sim.dataset.responses(), options);
    auto large = MWorkerEvaluate(large_sim.dataset.responses(), options);
    if (!small.ok() || !large.ok()) continue;
    if (small->assessments.empty() || large->assessments.empty()) continue;
    dev_small_pool += small->assessments[0].deviation;
    dev_large_pool += large->assessments[0].deviation;
    ++counted;
  }
  ASSERT_GT(counted, 10);
  EXPECT_LT(dev_large_pool, dev_small_pool);
}

}  // namespace
}  // namespace crowd::core
