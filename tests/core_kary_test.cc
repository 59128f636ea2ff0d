// Tests for the k-ary machinery: the counts tensor and Lemma 9
// covariances (against brute-force simulation), the response-frequency
// matrices, exact ProbEstimate recovery on noiseless expected counts,
// and Algorithm A3's interval construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/counts_tensor.h"
#include "core/kary_estimator.h"
#include "core/prob_estimate.h"
#include "linalg/matrix_functions.h"
#include "rng/random.h"
#include "sim/kary_worker.h"
#include "sim/simulator.h"

namespace crowd::core {
namespace {

TEST(CountsTensor, BuildFromResponses) {
  data::ResponseMatrix m(3, 4, 2);
  // Task 0: all respond (0,1,0) -> cell (1,2,1).
  m.Set(0, 0, 0).AbortIfNotOk();
  m.Set(1, 0, 1).AbortIfNotOk();
  m.Set(2, 0, 0).AbortIfNotOk();
  // Task 1: only workers 0 and 1 -> cell (2,2,0).
  m.Set(0, 1, 1).AbortIfNotOk();
  m.Set(1, 1, 1).AbortIfNotOk();
  // Task 2: only worker 2 -> cell (0,0,1).
  m.Set(2, 2, 0).AbortIfNotOk();
  // Task 3: nobody -> cell (0,0,0).
  auto tensor = CountsTensor::FromResponses(m, 0, 1, 2);
  ASSERT_TRUE(tensor.ok());
  EXPECT_DOUBLE_EQ(tensor->at(1, 2, 1), 1.0);
  EXPECT_DOUBLE_EQ(tensor->at(2, 2, 0), 1.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(tensor->TripleTotal(), 1.0);
  EXPECT_DOUBLE_EQ(tensor->PairAttemptTotal(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(tensor->PatternTotal(3), 1.0);  // w1+w2 only.

  EXPECT_TRUE(CountsTensor::FromResponses(m, 0, 0, 2).status()
                  .IsInvalid());
  EXPECT_TRUE(CountsTensor::FromResponses(m, 0, 1, 9).status()
                  .IsInvalid());
}

TEST(CountsTensor, CellPattern) {
  EXPECT_EQ((CountsCell{0, 0, 0}).Pattern(), 0);
  EXPECT_EQ((CountsCell{1, 0, 0}).Pattern(), 1);
  EXPECT_EQ((CountsCell{0, 2, 3}).Pattern(), 6);
  EXPECT_EQ((CountsCell{1, 1, 1}).Pattern(), 7);
}

TEST(CountsTensor, LemmaNineStructure) {
  CountsTensor tensor(2);
  tensor.at(1, 1, 1) = 30;
  tensor.at(1, 2, 1) = 10;
  tensor.at(2, 2, 0) = 5;
  tensor.at(1, 2, 0) = 15;
  // Case 1: different patterns -> zero.
  EXPECT_DOUBLE_EQ(
      tensor.Covariance({1, 1, 1}, {2, 2, 0}), 0.0);
  // Case 2: same cell -> count (n - count) / n, n = pattern total 40.
  EXPECT_DOUBLE_EQ(tensor.Covariance({1, 1, 1}, {1, 1, 1}),
                   30.0 * 10.0 / 40.0);
  // Case 3: same pattern, different cells -> -c1 c2 / n.
  EXPECT_DOUBLE_EQ(tensor.Covariance({1, 1, 1}, {1, 2, 1}),
                   -30.0 * 10.0 / 40.0);
  EXPECT_DOUBLE_EQ(tensor.Covariance({2, 2, 0}, {1, 2, 0}),
                   -5.0 * 15.0 / 20.0);
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The one-pass pattern totals and the bulk covariance matrix against
// per-pattern scans in (a, b, c) order, bit for bit, on non-integer
// counts where the summation order shows in the last bits.
TEST(CountsTensor, OnePassTotalsMatchPerPatternScans) {
  Random rng(53);
  CountsTensor tensor(3);
  const int s = tensor.side();
  for (int a = 0; a < s; ++a) {
    for (int b = 0; b < s; ++b) {
      for (int c = 0; c < s; ++c) tensor.at(a, b, c) = rng.Uniform(0, 50);
    }
  }
  const std::array<double, 8> totals = tensor.PatternTotals();
  for (int pattern = 0; pattern < 8; ++pattern) {
    double scan = 0.0;
    for (int a = 0; a < s; ++a) {
      for (int b = 0; b < s; ++b) {
        for (int c = 0; c < s; ++c) {
          const CountsCell cell{a, b, c};
          if (cell.Pattern() == pattern) scan += tensor.at(cell);
        }
      }
    }
    EXPECT_TRUE(BitEqual(totals[static_cast<size_t>(pattern)], scan));
    EXPECT_TRUE(BitEqual(tensor.PatternTotal(pattern), scan));
  }
  // Workers 1 and 3 both responded in patterns 0b101 and 0b111.
  EXPECT_TRUE(
      BitEqual(tensor.PairAttemptTotal(1, 3), 0.0 + totals[5] + totals[7]));

  const std::vector<CountsCell> cells = tensor.CellsWithMinWorkers(2);
  const linalg::Matrix cov = tensor.CovarianceMatrix(cells);
  ASSERT_EQ(cov.rows(), cells.size());
  for (size_t x = 0; x < cells.size(); ++x) {
    for (size_t y = 0; y < cells.size(); ++y) {
      EXPECT_TRUE(BitEqual(cov(x, y), tensor.Covariance(cells[x], cells[y])))
          << x << "," << y;
    }
  }
}

// Lemma 9 against brute-force: empirical covariances of tensor cells
// over repeated draws of a fixed generative model.
TEST(CountsTensorProperty, LemmaNineMatchesSimulation) {
  Random rng(5);
  const int trials = 40000;
  const size_t n = 40;
  // Cells tracked: two in the all-three pattern, one in a pair pattern.
  const CountsCell cells[3] = {{1, 1, 1}, {1, 2, 1}, {2, 2, 0}};
  double sums[3] = {0, 0, 0};
  double cross[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  CountsTensor expected_tensor(2);

  for (int trial = 0; trial < trials; ++trial) {
    CountsTensor tensor(2);
    Random stream = rng.Fork();
    for (size_t t = 0; t < n; ++t) {
      // Fixed attempt pattern: first 30 tasks all three, last 10 only
      // workers 1 and 2.
      bool all_three = t < 30;
      int r1 = stream.Bernoulli(0.3) ? 2 : 1;
      int r2 = stream.Bernoulli(0.4) ? 2 : 1;
      int r3 = all_three ? (stream.Bernoulli(0.2) ? 2 : 1) : 0;
      tensor.at(r1, r2, r3) += 1.0;
    }
    double values[3];
    for (int c = 0; c < 3; ++c) {
      values[c] = tensor.at(cells[c]);
      sums[c] += values[c];
    }
    for (int x = 0; x < 3; ++x) {
      for (int y = 0; y < 3; ++y) cross[x][y] += values[x] * values[y];
    }
    if (trial == 0) expected_tensor = tensor;
  }

  // Build the Lemma 9 prediction from the *expected* counts (the
  // formulas are evaluated at estimated counts in production; here use
  // the analytic expectations for a sharp test).
  CountsTensor analytic(2);
  analytic.at(1, 1, 1) = 30 * 0.7 * 0.6 * 0.8;
  analytic.at(1, 2, 1) = 30 * 0.7 * 0.4 * 0.8;
  analytic.at(2, 1, 1) = 30 * 0.3 * 0.6 * 0.8;
  analytic.at(2, 2, 1) = 30 * 0.3 * 0.4 * 0.8;
  analytic.at(1, 1, 2) = 30 * 0.7 * 0.6 * 0.2;
  analytic.at(1, 2, 2) = 30 * 0.7 * 0.4 * 0.2;
  analytic.at(2, 1, 2) = 30 * 0.3 * 0.6 * 0.2;
  analytic.at(2, 2, 2) = 30 * 0.3 * 0.4 * 0.2;
  analytic.at(1, 1, 0) = 10 * 0.7 * 0.6;
  analytic.at(1, 2, 0) = 10 * 0.7 * 0.4;
  analytic.at(2, 1, 0) = 10 * 0.3 * 0.6;
  analytic.at(2, 2, 0) = 10 * 0.3 * 0.4;

  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      double empirical =
          cross[x][y] / trials - (sums[x] / trials) * (sums[y] / trials);
      double predicted = analytic.Covariance(cells[x], cells[y]);
      EXPECT_NEAR(empirical, predicted,
                  0.08 * std::fabs(predicted) + 0.03)
          << "cells " << x << "," << y;
    }
  }
}

// Builds the *expected* counts tensor for planted parameters: exact
// input for which ProbEstimate must recover the truth to numerical
// precision.
CountsTensor ExpectedCounts(const std::vector<linalg::Matrix>& p,
                            const linalg::Vector& selectivity,
                            double total_tasks) {
  const int k = static_cast<int>(selectivity.size());
  CountsTensor tensor(k);
  for (int truth = 0; truth < k; ++truth) {
    for (int a = 1; a <= k; ++a) {
      for (int b = 1; b <= k; ++b) {
        for (int c = 1; c <= k; ++c) {
          tensor.at(a, b, c) += total_tasks * selectivity[truth] *
                                p[0](truth, a - 1) * p[1](truth, b - 1) *
                                p[2](truth, c - 1);
        }
      }
    }
  }
  return tensor;
}

TEST(ProbEstimate, ExactRecoveryOnExpectedCounts) {
  for (int arity : {2, 3, 4}) {
    auto pool = sim::PaperMatrixPool(arity);
    ASSERT_TRUE(pool.ok());
    std::vector<linalg::Matrix> planted = {(*pool)[0], (*pool)[1],
                                           (*pool)[2]};
    linalg::Vector selectivity(arity, 1.0 / arity);
    CountsTensor counts = ExpectedCounts(planted, selectivity, 1e6);

    auto estimate = ProbEstimate(counts);
    ASSERT_TRUE(estimate.ok()) << "arity " << arity << ": "
                               << estimate.status();
    for (int w = 0; w < 3; ++w) {
      linalg::Matrix v = estimate->v(w);
      // Rows of S^{1/2} P: normalize and compare with the planted P.
      ASSERT_TRUE(linalg::NormalizeRowsToSumOne(&v).ok());
      EXPECT_LT(v.MaxAbsDiff(planted[w]), 1e-6)
          << "arity " << arity << " worker " << w << "\n"
          << v.ToString();
    }
  }
}

TEST(ProbEstimate, RecoversSkewedSelectivity) {
  auto pool = sim::PaperMatrixPool(3);
  ASSERT_TRUE(pool.ok());
  std::vector<linalg::Matrix> planted = {(*pool)[1], (*pool)[1],
                                         (*pool)[2]};
  linalg::Vector selectivity = {0.5, 0.3, 0.2};
  CountsTensor counts = ExpectedCounts(planted, selectivity, 1e6);
  auto estimate = ProbEstimate(counts);
  ASSERT_TRUE(estimate.ok()) << estimate.status();
  // Row sums of V squared give the selectivity.
  auto sums = linalg::RowSums(estimate->v1);
  for (int z = 0; z < 3; ++z) {
    EXPECT_NEAR(sums[z] * sums[z], selectivity[z], 1e-6);
  }
}

TEST(ProbEstimate, MixedSliceFallbackRecoversWhenAllSlicesRejected) {
  // Forcing the eigengap gate to reject every per-j3 slice exercises
  // the mixed-slice fallback, which must still recover the planted
  // parameters exactly on expected counts (generic slice combinations
  // have simple spectra even when the individual slices do not).
  auto pool = sim::PaperMatrixPool(3);
  ASSERT_TRUE(pool.ok());
  std::vector<linalg::Matrix> planted = {(*pool)[0], (*pool)[1],
                                         (*pool)[2]};
  linalg::Vector selectivity(3, 1.0 / 3);
  CountsTensor counts = ExpectedCounts(planted, selectivity, 1e6);
  ProbEstimateOptions options;
  options.min_eigengap_ratio = 1.0;  // No single slice can pass.
  auto estimate = ProbEstimate(counts, options);
  ASSERT_TRUE(estimate.ok()) << estimate.status();
  EXPECT_EQ(estimate->rotations_used, 1);  // The mixed slice.
  for (int w = 0; w < 3; ++w) {
    linalg::Matrix v = estimate->v(w);
    ASSERT_TRUE(linalg::NormalizeRowsToSumOne(&v).ok());
    EXPECT_LT(v.MaxAbsDiff(planted[w]), 1e-6) << "worker " << w;
  }
}

TEST(ProbEstimate, MinConditionalCountSkipsThinSlices) {
  auto pool = sim::PaperMatrixPool(2);
  ASSERT_TRUE(pool.ok());
  std::vector<linalg::Matrix> planted = {(*pool)[0], (*pool)[1],
                                         (*pool)[2]};
  linalg::Vector selectivity(2, 0.5);
  CountsTensor counts = ExpectedCounts(planted, selectivity, 100.0);
  // Demanding more conditioning mass than any slice has makes the
  // per-slice pass empty — and the mixed-slice fallback has nothing
  // to mix, so the call must fail cleanly.
  ProbEstimateOptions options;
  options.min_conditional_count = 1e9;
  auto estimate = ProbEstimate(counts, options);
  EXPECT_TRUE(estimate.status().IsInsufficientData())
      << estimate.status();
}

TEST(ProbEstimate, FailsOnMissingPairOverlap) {
  CountsTensor counts(2);
  counts.at(1, 0, 1) = 10;  // Only workers 1 and 3 ever co-occur.
  auto estimate = ProbEstimate(counts);
  EXPECT_TRUE(estimate.status().IsInsufficientData());
}

TEST(ResponseFrequencies, MatchHandComputation) {
  CountsTensor counts(2);
  counts.at(1, 1, 1) = 6;
  counts.at(2, 2, 1) = 2;
  counts.at(1, 2, 0) = 2;  // w1, w2 only.
  auto freq = ComputeResponseFrequencies(counts);
  ASSERT_TRUE(freq.ok());
  // d12 = 10: R12(0,0) = 6/10, R12(0,1) = 2/10, R12(1,1) = 2/10.
  EXPECT_DOUBLE_EQ(freq->r12(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(freq->r12(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(freq->r12(1, 1), 0.2);
  // d23 = 8 (triple tasks only).
  EXPECT_DOUBLE_EQ(freq->r23(0, 0), 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(freq->r23(1, 0), 2.0 / 8.0);
}

// v_deviation of KaryEvaluateCounts, recomputed with every Jacobian
// cell differentiated on a fresh copy of `counts`: the plus point is
// x + eps and the minus point (x + eps) - 2 eps, as in the estimator,
// and no other cell differs from `counts`. The delta-method sums run in
// the estimator's order.
std::array<linalg::Matrix, 3> FreshCopyDeviations(const CountsTensor& counts,
                                                  const KaryOptions& options) {
  const size_t k = static_cast<size_t>(counts.arity());
  const auto base = ProbEstimate(counts, options.prob_estimate);
  CROWD_CHECK(base.ok());
  const std::vector<CountsCell> cells = counts.CellsWithMinWorkers(2);
  const size_t num_cells = cells.size();
  const double eps = options.epsilon;
  // derivatives[worker][r * k + c][cell]
  std::vector<std::vector<std::vector<double>>> derivatives(
      3, std::vector<std::vector<double>>(k * k,
                                          std::vector<double>(num_cells, 0.0)));
  for (size_t x = 0; x < num_cells; ++x) {
    CountsTensor work = counts;
    work.at(cells[x]) += eps;
    const auto plus = ProbEstimate(work, options.prob_estimate);
    work.at(cells[x]) -= 2.0 * eps;
    const auto minus = ProbEstimate(work, options.prob_estimate);
    if (!plus.ok() && !minus.ok()) continue;
    const double denom = plus.ok() && minus.ok() ? 2.0 * eps : eps;
    for (size_t w = 0; w < 3; ++w) {
      const int worker = static_cast<int>(w);
      const linalg::Matrix& hi = (plus.ok() ? *plus : *base).v(worker);
      const linalg::Matrix& lo = (minus.ok() ? *minus : *base).v(worker);
      for (size_t r = 0; r < k; ++r) {
        for (size_t c = 0; c < k; ++c) {
          derivatives[w][r * k + c][x] = (hi(r, c) - lo(r, c)) / denom;
        }
      }
    }
  }
  std::array<linalg::Matrix, 3> out;
  for (size_t w = 0; w < 3; ++w) {
    out[w] = linalg::Matrix(k, k);
    for (size_t r = 0; r < k; ++r) {
      for (size_t c = 0; c < k; ++c) {
        const std::vector<double>& d = derivatives[w][r * k + c];
        double variance = 0.0;
        for (size_t x = 0; x < num_cells; ++x) {
          if (d[x] == 0.0) continue;
          for (size_t y = 0; y < num_cells; ++y) {
            variance += d[x] * d[y] * counts.Covariance(cells[x], cells[y]);
          }
        }
        out[w](r, c) = std::sqrt(std::max(variance, 0.0));
      }
    }
  }
  return out;
}

// Small integer counts such as 2-4 and 16-31 are not restored exactly
// by x + eps - 2 eps + eps, so a Jacobian that perturbs one working
// copy in place differentiates each later cell around a drifted tensor.
TEST(KaryEstimator, JacobianDifferentiatesEveryCellAroundTheInput) {
  Random rng(61);
  sim::KarySimConfig config;
  config.arity = 3;
  config.num_tasks = 300;
  config.assignment = sim::AssignmentConfig::Iid(0.8);
  auto sim = sim::SimulateKary(config, &rng);
  ASSERT_TRUE(sim.ok());
  auto counts =
      CountsTensor::FromResponses(sim->dataset.responses(), 0, 1, 2);
  ASSERT_TRUE(counts.ok());
  const KaryOptions options;
  auto result = KaryEvaluateCounts(*counts, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const std::array<linalg::Matrix, 3> want =
      FreshCopyDeviations(*counts, options);
  for (size_t w = 0; w < 3; ++w) {
    const linalg::Matrix& got = result->workers[w].v_deviation;
    for (size_t r = 0; r < 3; ++r) {
      for (size_t c = 0; c < 3; ++c) {
        EXPECT_TRUE(BitEqual(got(r, c), want[w](r, c)))
            << "worker " << w << " (" << r << "," << c << "): " << got(r, c)
            << " vs " << want[w](r, c);
      }
    }
  }
}

TEST(KaryEstimator, IntervalsShrinkWithMoreTasks) {
  Random rng(7);
  double small_n_size = 0.0, large_n_size = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    for (size_t n : {size_t{200}, size_t{2000}}) {
      sim::KarySimConfig config;
      config.arity = 3;
      config.num_tasks = n;
      Random stream = rng.Fork();
      auto sim = sim::SimulateKary(config, &stream);
      ASSERT_TRUE(sim.ok());
      KaryOptions options;
      auto result =
          KaryEvaluate(sim->dataset.responses(), 0, 1, 2, options);
      if (!result.ok()) continue;
      double total = 0.0;
      for (int w = 0; w < 3; ++w) {
        for (int r = 0; r < 3; ++r) {
          for (int c = 0; c < 3; ++c) {
            total += result->workers[w].intervals[r][c].size();
          }
        }
      }
      (n == 200 ? small_n_size : large_n_size) += total;
    }
  }
  EXPECT_LT(large_n_size, small_n_size);
}

TEST(KaryEstimator, PaperStrictJacobianStillWorksOnRegularData) {
  Random rng(9);
  sim::KarySimConfig config;
  config.arity = 2;
  config.num_tasks = 800;
  auto sim = sim::SimulateKary(config, &rng);
  ASSERT_TRUE(sim.ok());
  KaryOptions strict;
  strict.paper_strict_jacobian = true;
  auto result =
      KaryEvaluate(sim->dataset.responses(), 0, 1, 2, strict);
  ASSERT_TRUE(result.ok()) << result.status();
  // On regular data pair-only cells are empty, so strict == default.
  KaryOptions loose;
  auto result2 =
      KaryEvaluate(sim->dataset.responses(), 0, 1, 2, loose);
  ASSERT_TRUE(result2.ok());
  for (int w = 0; w < 3; ++w) {
    EXPECT_LT(result->workers[w].v_deviation.MaxAbsDiff(
                  result2->workers[w].v_deviation),
              1e-9);
  }
}

TEST(KaryEstimator, RowStochasticPointEstimates) {
  Random rng(11);
  sim::KarySimConfig config;
  config.arity = 4;
  config.num_tasks = 1000;
  auto sim = sim::SimulateKary(config, &rng);
  ASSERT_TRUE(sim.ok());
  KaryOptions options;
  auto result = KaryEvaluate(sim->dataset.responses(), 0, 1, 2, options);
  ASSERT_TRUE(result.ok()) << result.status();
  for (int w = 0; w < 3; ++w) {
    auto sums = linalg::RowSums(result->workers[w].p);
    for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-9);
  }
  double total_selectivity = 0.0;
  for (double s : result->selectivity) total_selectivity += s;
  EXPECT_NEAR(total_selectivity, 1.0, 1e-9);
}

}  // namespace
}  // namespace crowd::core
