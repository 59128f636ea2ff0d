// Step 3 of Algorithm A2: combining the per-triple estimates of one
// worker's error rate into a single estimate.
//
//  * Lemma 4 gives the l x l covariance matrix of the per-triple
//    estimates: diagonal entries are the per-triple variances; off-
//    diagonal entries couple triples through the agreement rates that
//    involve the evaluated worker (the peer pairs are disjoint across
//    triples and contribute no covariance).
//  * Lemma 5 gives the minimum-variance linear weights,
//    A = C^{-1} 1 / (1^T C^{-1} 1).

#ifndef CROWD_CORE_TRIPLE_COMBINER_H_
#define CROWD_CORE_TRIPLE_COMBINER_H_

#include <cstdint>
#include <vector>

#include "core/three_worker.h"
#include "core/types.h"
#include "linalg/matrix.h"
#include "util/result.h"

namespace crowd::core {

/// \brief The combined estimate for one worker.
struct CombinedEstimate {
  double p = 0.0;
  double deviation = 0.0;
  /// The weights actually used (optimal, or uniform on request or
  /// fallback).
  linalg::Vector weights;
  /// True when the Lemma 5 system was ill-conditioned and the combiner
  /// fell back to uniform weights.
  bool used_fallback_weights = false;
};

/// \brief The Lemma 4 covariance matrix of the per-triple estimates.
/// All triples must evaluate the same worker.
Result<linalg::Matrix> CrossTripleCovariance(
    const std::vector<TripleEstimate>& triples,
    const data::OverlapIndex& overlap, const BinaryOptions& options);

/// \brief Lemma 5: weights minimizing a^T C a subject to sum(a) = 1.
/// Falls back to uniform weights (flagged via the bool) when C is
/// singular even after ridge regularization.
struct WeightSolution {
  linalg::Vector weights;
  bool used_fallback = false;
};
WeightSolution MinimumVarianceWeights(const linalg::Matrix& covariance,
                                      double ridge);

/// \brief Full Step 3: covariance, weights, combined estimate.
Result<CombinedEstimate> CombineTriples(
    const std::vector<TripleEstimate>& triples,
    const data::OverlapIndex& overlap, const BinaryOptions& options);

/// The Lemma 4 term kernels, callable directly so a test can check each
/// one against the per-visit formula. Like util/bitops.h, there is a
/// portable variant and an __attribute__((target("avx2"))) one, picked
/// on first call; both evaluate every term with the same expression in
/// the same order, so they agree to the bit.
namespace triple_combiner_internal {

/// What the (k1, k2) loop reads for worker i's l triples. Slot
/// s = 2k + t is triple k's peer j1 (t = 0) or j2 (t = 1).
struct CovarianceTerms {
  size_t l = 0;
  /// p[k]: triple k's estimate of p_i.
  const double* p = nullptr;
  /// d[t][k] = d_{i,j_t} and c_i[t][k] = c_{i,j_t} of triple k.
  const double* d[2] = {nullptr, nullptr};
  const double* c_i[2] = {nullptr, nullptr};
  /// peer[s]: the worker in slot s.
  const data::WorkerId* peer = nullptr;
  /// c_{i,a,b} at c_triple[a * 2l + b] for slots a < b.
  const uint32_t* c_triple = nullptr;
  const data::OverlapIndex* overlap = nullptr;
  /// 0.5 + min_agreement_margin: the clamp's lower bound.
  double q_min = 0.5;
};

/// Writes the off-diagonal sum of entry (k1, k2), k1 < k2, to
/// cov[k1 * l + k2]; leaves every other entry as it is.
void CovarianceTermsPortable(const CovarianceTerms& terms, double* cov);
/// Precondition: util::CpuHasAvx2().
void CovarianceTermsAvx2(const CovarianceTerms& terms, double* cov);

using CovarianceKernel = void (*)(const CovarianceTerms&, double*);

/// CrossTripleCovariance with `kernel` in place of the dispatched one.
Result<linalg::Matrix> CrossTripleCovarianceWith(
    CovarianceKernel kernel,
    const std::vector<TripleEstimate>& triples,
    const data::OverlapIndex& overlap, const BinaryOptions& options);

}  // namespace triple_combiner_internal

}  // namespace crowd::core

#endif  // CROWD_CORE_TRIPLE_COMBINER_H_
