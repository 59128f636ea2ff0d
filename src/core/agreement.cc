#include "core/agreement.h"

#include "obs/metrics.h"

namespace crowd::core {

Result<PairAgreement> ComputePairAgreement(
    const data::OverlapIndex& overlap, data::WorkerId a, data::WorkerId b,
    double min_agreement_margin) {
  PairAgreement out;
  out.a = a;
  out.b = b;
  out.common = overlap.CommonCount(a, b);
  CROWD_ASSIGN_OR_RETURN(out.q_raw, overlap.AgreementRate(a, b));
  out.q = ClampedAgreementRate(overlap, a, b, min_agreement_margin);
  out.clamped = out.q != out.q_raw;
  if (out.clamped) {
    // Count only the (rare) clamp events, no timing here. EvaluateTriple
    // is the only library caller, so this counts once per (triple, pair).
    if (obs::Registry* r = obs::MetricsRegistry()) {
      static obs::Counter* const clamped = r->GetCounter(
          "crowdeval_core_agreement_clamped_total",
          "agreement rates clamped away from the 1/2 singularity, once "
          "per (triple, pair) a triple estimate reads");
      clamped->Increment();
    }
  }
  return out;
}

}  // namespace crowd::core
