#include "core/triple_combiner.h"

#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "obs/metrics.h"
#include "stats/delta_method.h"
#include "util/bitops.h"
#include "util/string_util.h"

namespace crowd::core {

namespace {

// C(i, j, j') of Lemma 4: the covariance of Q_{i,j} and Q_{i,j'}
// through the shared worker i,
//   C = c_{i,j,j'} p_i (1 - p_i) (2 q_{j,j'} - 1) / (c_{i,j} c_{i,j'}).
// Returns 0 when no task was attempted by all of i, j, j' (then the
// two agreement rates are computed over response sets with no shared
// (worker, task) cell). c_{i,j,j'} > 0 implies c_{j,j'} > 0, so q_{j,j'}
// is always defined when it is read.
double LemmaFourC(const data::OverlapIndex& overlap, size_t c_triple,
                  data::WorkerId j, data::WorkerId j_prime, double c_ij,
                  double c_ij_prime, double p_i,
                  const BinaryOptions& options) {
  if (c_triple == 0) return 0.0;
  const double q = ClampedAgreementRate(overlap, j, j_prime,
                                        options.min_agreement_margin);
  return static_cast<double>(c_triple) * p_i * (1.0 - p_i) * (2.0 * q - 1.0) /
         (c_ij * c_ij_prime);
}

}  // namespace

Result<linalg::Matrix> CrossTripleCovariance(
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
  // Slot 2k + s holds triple k's peer j1 (s = 0) or j2 (s = 1), its
  // derivative d_{i,peer}, c_{i,peer}, and the row B_peer = A_i & A_peer
  // compacted to i's tasks. One kernel call counts c_{i,a,b} for every
  // slot pair a < b into `c_triple` (row a, column b); the loop below
  // reads the pairs whose slots belong to different triples.
  std::vector<data::WorkerId> peer(2 * l);
  std::vector<double> d(2 * l);
  std::vector<double> c_i(2 * l);
  for (size_t k = 0; k < l; ++k) {
    const TripleEstimate& t = triples[k];
    peer[2 * k] = t.j1;
    peer[2 * k + 1] = t.j2;
    d[2 * k] = t.d_i_j1;
    d[2 * k + 1] = t.d_i_j2;
  }
  for (size_t s = 0; s < 2 * l; ++s) {
    c_i[s] = static_cast<double>(overlap.CommonCount(i, peer[s]));
  }
  std::vector<uint64_t> rows;
  const size_t words = overlap.SharedAttemptRows(i, peer, &rows);
  std::vector<uint32_t> c_triple(4 * l * l);
  util::AndPopcountPairs(rows.data(), 2 * l, words, c_triple.data());

  linalg::Matrix cov(l, l);
  for (size_t k1 = 0; k1 < l; ++k1) {
    cov(k1, k1) = triples[k1].deviation * triples[k1].deviation;
    for (size_t k2 = k1 + 1; k2 < l; ++k2) {
      // The shared worker's error rate: use the mean of the two
      // triples' estimates (the true p_i is unknown; any consistent
      // estimate is admissible in the plug-in covariance).
      double p_i = 0.5 * (triples[k1].p + triples[k2].p);
      double sum = 0.0;
      // Terms (j1, j1), (j1, j2), (j2, j1), (j2, j2), in that order.
      for (size_t a = 2 * k1; a < 2 * k1 + 2; ++a) {
        for (size_t b = 2 * k2; b < 2 * k2 + 2; ++b) {
          double c = LemmaFourC(overlap, c_triple[a * 2 * l + b], peer[a],
                                peer[b], c_i[a], c_i[b], p_i, options);
          sum += d[a] * d[b] * c;
        }
      }
      cov(k1, k2) = cov(k2, k1) = sum;
    }
  }
  return cov;
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
