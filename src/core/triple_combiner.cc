#include "core/triple_combiner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>

#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "obs/metrics.h"
#include "stats/delta_method.h"
#include "util/bitops.h"
#include "util/cpu.h"
#include "util/string_util.h"

namespace crowd::core {

namespace triple_combiner_internal {

namespace {

// Entry (k1, k2) of Lemma 4 away from the diagonal: the terms
// d_{i,a} d_{i,b} C(i, a, b) for the slot pairs (j1, j1), (j1, j2),
// (j2, j1), (j2, j2), summed in that order, with
//   C = c_{i,a,b} p_i (1 - p_i) (2 q_{a,b} - 1) / (c_{i,a} c_{i,b}),
// q clamped as in ClampedAgreementRate, and C = 0 when no task was
// attempted by all of i, a, b (c_{i,a,b} > 0 implies c_{a,b} > 0, so
// q_{a,b} is defined whenever it counts). p_i is the mean of the two
// triples' estimates: the true p_i is unknown, and any consistent
// estimate is admissible in the plug-in covariance. Inlined like Terms
// below, so an AVX2 caller runs no SSE code between its vector loops.
__attribute__((always_inline)) inline double EntrySum(
    const CovarianceTerms& in, size_t k1, size_t k2) {
  const size_t slots = 2 * in.l;
  const double p_i = 0.5 * (in.p[k1] + in.p[k2]);
  double sum = 0.0;
  for (size_t s = 0; s < 2; ++s) {
    const size_t a = 2 * k1 + s;
    const double* rate = in.overlap->AgreementRateRow(in.peer[a]);
    for (size_t t = 0; t < 2; ++t) {
      const size_t b = 2 * k2 + t;
      const uint32_t c_triple = in.c_triple[a * slots + b];
      double c = 0.0;
      if (c_triple != 0) {
        const double q = std::clamp(rate[in.peer[b]], in.q_min, 1.0);
        c = static_cast<double>(c_triple) * p_i * (1.0 - p_i) *
            (2.0 * q - 1.0) / (in.c_i[s][k1] * in.c_i[t][k2]);
      }
      sum += in.d[s][k1] * in.d[t][k2] * c;
    }
  }
  return sum;
}

// The body of both variants, inlined into each so the vector arithmetic
// compiles under the variant's target: N = 2 lanes on the baseline,
// N = 4 under AVX2. The lanes are N consecutive k2; each evaluates
// EntrySum's expressions in EntrySum's order, and the (l - k1 - 1) mod N
// entries left at the end of a row run EntrySum itself.
template <size_t N>
__attribute__((always_inline)) inline void Terms(const CovarianceTerms& in,
                                                 double* cov) {
  using Vec = typename util::Simd<N>::Doubles;
  using Words = typename util::Simd<N>::Words;
  const size_t l = in.l;
  const size_t slots = 2 * l;
  // Cells (2 k2, 2 k2 + 1) of a c_triple row are one 64-bit word;
  // kShift[t] moves cell t to its low half. uint32_t cells convert
  // exactly: 2^52 + u is a double whose low mantissa bits are u.
  constexpr bool kLittle = std::endian::native == std::endian::little;
  constexpr uint64_t kShift[2] = {kLittle ? 0u : 32u, kLittle ? 32u : 0u};
  constexpr uint64_t kTwo52Bits = 0x4330000000000000u;
  constexpr double kTwo52 = 4503599627370496.0;
  for (size_t k1 = 0; k1 < l; ++k1) {
    double* row = cov + k1 * l;
    size_t k2 = k1 + 1;
    for (; k2 + N <= l; k2 += N) {
      Vec p2;
      std::memcpy(&p2, in.p + k2, sizeof p2);
      const Vec p_i = 0.5 * (in.p[k1] + p2);
      Vec sum = {};
#pragma GCC unroll 2
      for (size_t s = 0; s < 2; ++s) {
        const size_t a = 2 * k1 + s;
        const double* rate = in.overlap->AgreementRateRow(in.peer[a]);
        Words cells;
        std::memcpy(&cells, in.c_triple + a * slots + 2 * k2, sizeof cells);
#pragma GCC unroll 2
        for (size_t t = 0; t < 2; ++t) {
          const Words count = (cells >> kShift[t]) & 0xFFFFFFFFu;
          const Vec c_triple = (Vec)(count | kTwo52Bits) - kTwo52;
          // Scalar loads: q_{a,b} is scattered over the rate table.
          Vec q = {};
#pragma GCC unroll 4
          for (size_t lane = 0; lane < N; ++lane) {
            q[lane] = std::clamp(rate[in.peer[2 * (k2 + lane) + t]],
                                 in.q_min, 1.0);
          }
          Vec c_b, d_b;
          std::memcpy(&c_b, in.c_i[t] + k2, sizeof c_b);
          std::memcpy(&d_b, in.d[t] + k2, sizeof d_b);
          const Vec c = c_triple * p_i * (1.0 - p_i) * (2.0 * q - 1.0) /
                        (in.c_i[s][k1] * c_b);
          // C = +0 where c_{i,a,b} = 0, as EntrySum's c = 0.0. (A cast
          // between vector types of one size keeps the bits.)
          auto counted = c_triple != 0.0;
          const Vec c_or_zero = (Vec)((decltype(counted))c & counted);
          sum += in.d[s][k1] * d_b * c_or_zero;
        }
      }
      std::memcpy(row + k2, &sum, sizeof sum);
    }
    for (; k2 < l; ++k2) row[k2] = EntrySum(in, k1, k2);
  }
}

}  // namespace

void CovarianceTermsPortable(const CovarianceTerms& terms, double* cov) {
  Terms<2>(terms, cov);
}

CROWD_TARGET_AVX2 void CovarianceTermsAvx2(const CovarianceTerms& terms,
                                           double* cov) {
  Terms<4>(terms, cov);
}

Result<linalg::Matrix> CrossTripleCovarianceWith(
    CovarianceKernel kernel,
    const std::vector<TripleEstimate>& triples,
    const data::OverlapIndex& overlap, const BinaryOptions& options) {
  const size_t l = triples.size();
  if (l == 0) {
    return Status::Invalid("CrossTripleCovariance: no triples");
  }
  const data::WorkerId i = triples[0].i;
  for (const auto& t : triples) {
    if (t.i != i) {
      return Status::Invalid(
          "CrossTripleCovariance: triples evaluate different workers");
    }
  }
  // Slot 2k + t holds triple k's peer j1 (t = 0) or j2 (t = 1) and the
  // row B_peer = A_i & A_peer compacted to i's tasks. One kernel call
  // counts c_{i,a,b} for every slot pair a < b into `c_triple` (row a,
  // column b); the term kernel reads the pairs whose slots belong to
  // different triples. p, d_{i,j1}, d_{i,j2}, c_{i,j1} and c_{i,j2} are
  // rows of `columns`, one entry per triple, so that consecutive k2 are
  // adjacent.
  std::vector<data::WorkerId> peer(2 * l);
  std::vector<double> columns(5 * l);
  double* p = columns.data();
  for (size_t k = 0; k < l; ++k) {
    const TripleEstimate& t = triples[k];
    peer[2 * k] = t.j1;
    peer[2 * k + 1] = t.j2;
    p[k] = t.p;
    p[l + k] = t.d_i_j1;
    p[2 * l + k] = t.d_i_j2;
    p[3 * l + k] = static_cast<double>(overlap.CommonCount(i, t.j1));
    p[4 * l + k] = static_cast<double>(overlap.CommonCount(i, t.j2));
  }
  std::vector<uint64_t> rows;
  const size_t words = overlap.SharedAttemptRows(i, peer, &rows);
  // Only the cells a < b are written and read: no zero fill.
  const auto c_triple = std::make_unique_for_overwrite<uint32_t[]>(4 * l * l);
  util::AndPopcountPairs(rows.data(), 2 * l, words, c_triple.get());

  const CovarianceTerms terms{.l = l,
                              .p = p,
                              .d = {p + l, p + 2 * l},
                              .c_i = {p + 3 * l, p + 4 * l},
                              .peer = peer.data(),
                              .c_triple = c_triple.get(),
                              .overlap = &overlap,
                              .q_min = 0.5 + options.min_agreement_margin};
  linalg::Matrix cov(l, l);
  kernel(terms, cov.data());
  for (size_t k1 = 0; k1 < l; ++k1) {
    cov(k1, k1) = triples[k1].deviation * triples[k1].deviation;
    for (size_t k2 = k1 + 1; k2 < l; ++k2) cov(k2, k1) = cov(k1, k2);
  }
  return cov;
}

}  // namespace triple_combiner_internal

namespace {

// Chosen on first use, like util/bitops.cc's kernels.
triple_combiner_internal::CovarianceKernel SelectedCovarianceKernel() {
  using namespace triple_combiner_internal;
  static const CovarianceKernel kernel =
      util::CpuHasAvx2() ? CovarianceTermsAvx2 : CovarianceTermsPortable;
  return kernel;
}

}  // namespace

Result<linalg::Matrix> CrossTripleCovariance(
    const std::vector<TripleEstimate>& triples,
    const data::OverlapIndex& overlap, const BinaryOptions& options) {
  return triple_combiner_internal::CrossTripleCovarianceWith(
      SelectedCovarianceKernel(), triples, overlap, options);
}

WeightSolution MinimumVarianceWeights(const linalg::Matrix& covariance,
                                      double ridge) {
  const size_t l = covariance.rows();
  WeightSolution out;
  out.weights.assign(l, 1.0 / static_cast<double>(l));
  if (l == 1) return out;

  // Ridge scaled by the mean diagonal keeps the jitter proportionate.
  double mean_diag = 0.0;
  for (size_t i = 0; i < l; ++i) mean_diag += covariance(i, i);
  mean_diag /= static_cast<double>(l);
  linalg::Matrix regularized = covariance;
  for (size_t i = 0; i < l; ++i) {
    regularized(i, i) += ridge * std::max(mean_diag, 1e-300);
  }

  // B = C^{-1} 1 ; A = B / (1^T B)  (Lemma 5). Cholesky first: the
  // regularized covariance should be SPD, and the factorization is the
  // cheapest check of that; LU handles the occasional non-PSD plug-in
  // estimate.
  auto solved = [&]() -> Result<linalg::Vector> {
    linalg::Vector ones(l, 1.0);
    auto chol = linalg::CholeskyDecomposition::Compute(regularized);
    if (chol.ok()) return chol->Solve(ones);
    return linalg::SolveLinearSystem(regularized, ones);
  }();
  if (!solved.ok()) {
    out.used_fallback = true;
    return out;
  }
  double total = 0.0;
  for (double b : *solved) total += b;
  if (!(std::fabs(total) > 1e-300) || !std::isfinite(total)) {
    out.used_fallback = true;
    return out;
  }
  for (size_t i = 0; i < l; ++i) out.weights[i] = (*solved)[i] / total;
  // Project onto the non-negative simplex. The unconstrained optimum
  // can carry negative weights when estimates are strongly correlated,
  // but with *estimated* covariances those solutions are fragile —
  // on sparse data they produce wildly extrapolated combinations — so
  // negative weights are zeroed and the rest renormalized.
  double positive_total = 0.0;
  bool any_negative = false;
  for (double w : out.weights) {
    if (w < 0.0) {
      any_negative = true;
    } else {
      positive_total += w;
    }
  }
  if (any_negative) {
    if (positive_total <= 0.0) {
      out.used_fallback = true;
      out.weights.assign(l, 1.0 / static_cast<double>(l));
      return out;
    }
    for (double& w : out.weights) {
      w = std::max(w, 0.0) / positive_total;
    }
  }
  return out;
}

Result<CombinedEstimate> CombineTriples(
    const std::vector<TripleEstimate>& triples,
    const data::OverlapIndex& overlap, const BinaryOptions& options) {
  if (triples.empty()) {
    return Status::InsufficientData("CombineTriples: no triples");
  }
  CROWD_ASSIGN_OR_RETURN(linalg::Matrix cov,
                         CrossTripleCovariance(triples, overlap, options));
  CombinedEstimate out;
  if (options.weights == WeightScheme::kOptimal) {
    WeightSolution solution =
        MinimumVarianceWeights(cov, options.covariance_ridge);
    out.weights = std::move(solution.weights);
    out.used_fallback_weights = solution.used_fallback;
    if (solution.used_fallback) {
      if (obs::Registry* r = obs::MetricsRegistry()) {
        static obs::Counter* const fallbacks = r->GetCounter(
            "crowdeval_core_weight_fallback_total",
            "combines that fell back to uniform weights");
        fallbacks->Increment();
      }
    }
  } else {
    out.weights.assign(triples.size(),
                       1.0 / static_cast<double>(triples.size()));
  }
  out.p = 0.0;
  for (size_t k = 0; k < triples.size(); ++k) {
    out.p += out.weights[k] * triples[k].p;
  }
  auto variance = stats::WeightedSumVariance(out.weights, cov);
  if (!variance.ok() && variance.status().IsNumericalError()) {
    // Estimated covariances are not exactly PSD; when the cross terms
    // push the quadratic form negative, fall back to the per-triple
    // variances alone (non-negative by construction).
    double diag_variance = 0.0;
    for (size_t k = 0; k < triples.size(); ++k) {
      diag_variance += out.weights[k] * out.weights[k] * cov(k, k);
    }
    variance = diag_variance;
    if (obs::Registry* r = obs::MetricsRegistry()) {
      static obs::Counter* const fallbacks = r->GetCounter(
          "crowdeval_core_combine_diag_fallback_total",
          "combines whose variance fell back to the diagonal");
      fallbacks->Increment();
    }
  }
  CROWD_ASSIGN_OR_RETURN(double var_value, std::move(variance));
  out.deviation = std::sqrt(var_value);
  return out;
}

}  // namespace crowd::core
