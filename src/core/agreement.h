// Agreement statistics between workers: the q_ij estimates with their
// co-attempt counts, plus the clamping policy for agreement rates near
// the 1/2 singularity of the triangulation formula.
//
// The paper's model assumes non-malicious workers (p_i < 1/2), so true
// agreement rates exceed 1/2; sample fluctuation can still push an
// estimate to or below 1/2, where f has a singularity (Section III-E2).
// We clamp estimates to 0.5 + margin: the point estimate becomes ~1/2
// (the worst admissible worker) and the Lemma 2 derivatives blow up,
// inflating the deviation so that the affected triple is automatically
// down-weighted by the Lemma 5 optimal weights.

#ifndef CROWD_CORE_AGREEMENT_H_
#define CROWD_CORE_AGREEMENT_H_

#include <algorithm>

#include "data/overlap_index.h"
#include "util/result.h"

namespace crowd::core {

/// \brief One pair's agreement summary.
struct PairAgreement {
  data::WorkerId a = 0;
  data::WorkerId b = 0;
  /// c_ab: tasks attempted by both.
  size_t common = 0;
  /// Raw estimate (agreements / common), before clamping.
  double q_raw = 0.0;
  /// Estimate clamped into (0.5, 1].
  double q = 0.0;
  bool clamped = false;
};

/// \brief The clamped agreement rate q_ab = clamp(a_ab / c_ab,
/// 0.5 + margin, 1) of a pair that shares at least one task
/// (c_ab > 0). ComputePairAgreement reports this value as `q`; Lemma 4
/// reads it directly, with no Result and no metric, because it visits
/// ~2l^2 peer pairs per worker. a_ab / c_ab is the index's stored rate.
inline double ClampedAgreementRate(const data::OverlapIndex& overlap,
                                   data::WorkerId a, data::WorkerId b,
                                   double min_agreement_margin) {
  CROWD_DCHECK(overlap.CommonCount(a, b) > 0);
  return std::clamp(overlap.AgreementRateRow(a)[b],
                    0.5 + min_agreement_margin, 1.0);
}

/// \brief Computes the agreement summary for a pair; fails with
/// InsufficientData when the workers share no task. Counts each clamped
/// result in crowdeval_core_agreement_clamped_total.
Result<PairAgreement> ComputePairAgreement(
    const data::OverlapIndex& overlap, data::WorkerId a, data::WorkerId b,
    double min_agreement_margin);

}  // namespace crowd::core

#endif  // CROWD_CORE_AGREEMENT_H_
