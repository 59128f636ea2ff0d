#include "core/prob_estimate.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "linalg/eigen.h"
#include "linalg/lu.h"
#include "linalg/matrix_functions.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace crowd::core {

namespace {

/// Counts an estimator event on the named counter (no-op until
/// EnableMetrics). Names are registered lazily per call site.
void CountEvent(const char* name, const char* help, uint64_t delta = 1) {
  if (obs::Registry* r = obs::MetricsRegistry()) {
    r->GetCounter(name, help)->Increment(delta);
  }
}

// Rows of S^{1/2} P_i have positive sums (= sqrt(S_r)); eigenvector
// sign ambiguity can negate whole rows, so flip any negative-sum row.
void FixRowSigns(linalg::Matrix* v) {
  for (size_t r = 0; r < v->rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < v->cols(); ++c) sum += (*v)(r, c);
    if (sum < 0.0) {
      for (size_t c = 0; c < v->cols(); ++c) (*v)(r, c) = -(*v)(r, c);
    }
  }
}

// Step 6.d of Algorithm A3: rows arrive in the (arbitrary) eigenvalue
// order; the diagonal-dominance property of response-probability
// matrices (P(j,j) largest in row j) pins each row to its true
// position. Repeated passes of the paper's swap rule, capped for
// safety against oscillation.
void FixRowOrder(linalg::Matrix* v) {
  const size_t k = v->rows();
  for (size_t pass = 0; pass < k; ++pass) {
    bool changed = false;
    for (size_t j = 0; j < k; ++j) {
      size_t best = 0;
      for (size_t c = 1; c < k; ++c) {
        if ((*v)(j, c) > (*v)(j, best)) best = c;
      }
      if (best != j) {
        v->SwapRows(j, best);
        changed = true;
      }
    }
    if (!changed) break;
  }
}

Result<linalg::Matrix> SpectralSquareRoot(
    const linalg::Matrix& m, const ProbEstimateOptions& options) {
  auto direct = linalg::PrincipalSqrt(m);
  if (direct.ok() || !options.allow_symmetrize_fallback) return direct;
  // M is symmetric in expectation (Lemma 7); use the symmetrized
  // sample version when noise produced a complex spectrum.
  linalg::Matrix sym = 0.5 * (m + m.Transposed());
  auto fallback = linalg::SymmetricSqrt(sym);
  if (!fallback.ok()) {
    return direct.status().WithContext(
        "principal square root failed and symmetrized fallback also "
        "failed (" +
        fallback.status().ToString() + ")");
  }
  return fallback;
}

}  // namespace

Result<ResponseFrequencies> ComputeResponseFrequencies(
    const CountsTensor& counts) {
  const int k = counts.arity();
  ResponseFrequencies out{linalg::Matrix(k, k), linalg::Matrix(k, k),
                          linalg::Matrix(k, k)};
  const double d12 = counts.PairAttemptTotal(1, 2);
  const double d23 = counts.PairAttemptTotal(2, 3);
  const double d31 = counts.PairAttemptTotal(3, 1);
  if (d12 <= 0.0 || d23 <= 0.0 || d31 <= 0.0) {
    return Status::InsufficientData(StrFormat(
        "a worker pair shares no tasks (n12=%g, n23=%g, n31=%g)", d12,
        d23, d31));
  }
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      double sum12 = 0.0;
      double sum23 = 0.0;
      double sum31 = 0.0;
      for (int other = 0; other <= k; ++other) {
        sum12 += counts.at(i + 1, j + 1, other);   // w1=i, w2=j.
        sum23 += counts.at(other, i + 1, j + 1);   // w2=i, w3=j.
        sum31 += counts.at(j + 1, other, i + 1);   // w3=i, w1=j.
      }
      out.r12(i, j) = sum12 / d12;
      out.r23(i, j) = sum23 / d23;
      out.r31(i, j) = sum31 / d31;
    }
  }
  return out;
}

Result<ProbEstimateResult> ProbEstimate(const CountsTensor& counts,
                                        const ProbEstimateOptions& options) {
  CROWD_SPAN("core.prob_estimate");
  CountEvent("crowdeval_core_probestimate_runs_total",
             "spectral ProbEstimate invocations");
  const int k = counts.arity();
  CROWD_ASSIGN_OR_RETURN(ResponseFrequencies freq,
                         ComputeResponseFrequencies(counts));
  const linalg::Matrix r32 = freq.r23.Transposed();
  const linalg::Matrix r13 = freq.r31.Transposed();

  // Step 3: M = R12 R32^{-1} R31 = (S^{1/2} P1)^T (S^{1/2} P1).
  auto r32_inv = linalg::Inverse(r32);
  if (!r32_inv.ok()) {
    return r32_inv.status().WithContext(
        "R_{3,2} is singular; the spectral method needs invertible "
        "response-frequency matrices (e.g. no response class may be "
        "empty)");
  }
  const linalg::Matrix m = freq.r12 * (*r32_inv) * freq.r31;

  // Step 4: U1 = principal square root of M; U2, U3 from Lemma 6.
  CROWD_ASSIGN_OR_RETURN(linalg::Matrix u1, SpectralSquareRoot(m, options));
  auto u1t_inv = linalg::Inverse(u1.Transposed());
  if (!u1t_inv.ok()) {
    return u1t_inv.status().WithContext("U1^T is singular");
  }
  const linalg::Matrix u2 = (*u1t_inv) * freq.r12;
  const linalg::Matrix u3 = (*u1t_inv) * r13;
  auto u2_inv = linalg::Inverse(u2);
  if (!u2_inv.ok()) {
    return u2_inv.status().WithContext("U2 is singular");
  }

  // Steps 5-6: recover the rotation from each conditional response-
  // frequency matrix and average the resulting V1 estimates.
  //
  // G = (U1^T)^{-1} R_{1,2|3=j3} U2^{-1} = U^T W U  (Lemma 8), so the
  // eigenvectors of G are the rows of the sought rotation U — provided
  // the slice's spectrum (worker 3's response probabilities for j3) is
  // simple; degenerate slices are skipped, and if none survives, a
  // generic linear combination of slices (simple spectrum for generic
  // weights) recovers the same rotation.
  auto try_slice = [&](const linalg::Matrix& r_cond,
                       double eigengap_ratio)
      -> std::optional<linalg::Matrix> {
    const linalg::Matrix g = (*u1t_inv) * r_cond * (*u2_inv);
    auto eig = linalg::EigenGeneralReal(g);
    if (!eig.ok()) return std::nullopt;
    // Eigengap check: values are sorted descending.
    double range = eig->values.front() - eig->values.back();
    double min_gap = range;
    for (size_t i = 0; i + 1 < eig->values.size(); ++i) {
      min_gap = std::min(min_gap, eig->values[i] - eig->values[i + 1]);
    }
    if (!(range > 1e-12) || min_gap < eigengap_ratio * range) {
      return std::nullopt;
    }
    auto u_hat_inv = linalg::Inverse(eig->vectors);
    if (!u_hat_inv.ok()) return std::nullopt;
    linalg::Matrix v1_slice = (*u_hat_inv) * u1;
    FixRowSigns(&v1_slice);
    FixRowOrder(&v1_slice);
    return v1_slice;
  };

  // The per-j3 conditional response-frequency matrices.
  std::vector<linalg::Matrix> conditionals;
  conditionals.reserve(static_cast<size_t>(k));
  for (int j3 = 1; j3 <= k; ++j3) {
    double n_j3 = 0.0;
    for (int a = 1; a <= k; ++a) {
      for (int b = 1; b <= k; ++b) n_j3 += counts.at(a, b, j3);
    }
    if (n_j3 < options.min_conditional_count) continue;
    linalg::Matrix r_cond(k, k);
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        r_cond(a, b) = counts.at(a + 1, b + 1, j3) / n_j3;
      }
    }
    conditionals.push_back(std::move(r_cond));
  }
  if (conditionals.empty()) {
    return Status::InsufficientData(
        "no conditioning response of worker 3 is backed by enough tasks");
  }

  ProbEstimateResult out;
  out.v1 = linalg::Matrix(k, k);
  int used = 0;
  for (const auto& r_cond : conditionals) {
    auto v1_slice = try_slice(r_cond, options.min_eigengap_ratio);
    if (!v1_slice.has_value()) {
      CountEvent("crowdeval_core_probestimate_slices_skipped_total",
                 "conditional slices skipped as spectrally degenerate");
      continue;
    }
    out.v1 += *v1_slice;
    ++used;
  }
  if (used == 0) {
    CountEvent("crowdeval_core_probestimate_mixed_fallback_total",
               "runs that resorted to the mixed-slice fallback");
    // Mixed-slice fallback: sum_j theta_j R_cond_j has eigenvalues
    // sum_j theta_j P3(z, j) — distinct for generic theta even when
    // every individual slice is degenerate. Try a few deterministic
    // weight sequences; gate on a fixed modest eigengap (the fallback
    // exists precisely for when the configured gate rejects all
    // slices).
    const double fallback_ratio =
        std::min(options.min_eigengap_ratio, 0.02);
    for (int attempt = 0; attempt < 4 && used == 0; ++attempt) {
      linalg::Matrix mixed(k, k);
      for (size_t j = 0; j < conditionals.size(); ++j) {
        double phase = 0.6180339887498949 *
                       static_cast<double>(j + 1) *
                       static_cast<double>(attempt + 1);
        double theta = 0.5 + (phase - std::floor(phase));
        mixed += theta * conditionals[j];
      }
      auto v1_slice = try_slice(mixed, fallback_ratio);
      if (v1_slice.has_value()) {
        out.v1 += *v1_slice;
        used = 1;
      }
    }
  }
  if (used == 0) {
    CountEvent("crowdeval_core_probestimate_failures_total",
               "runs where no usable rotation was recovered");
    return Status::NumericalError(
        "no conditioning response of worker 3 yielded a usable rotation "
        "(all eigen-decompositions degenerate, mixed-slice fallback "
        "included)");
  }
  out.v1 *= 1.0 / static_cast<double>(used);
  out.rotations_used = used;

  // Step 7: V2 = (V1^T)^{-1} R12, V3 = (V1^T)^{-1} R13.
  auto v1t_inv = linalg::Inverse(out.v1.Transposed());
  if (!v1t_inv.ok()) {
    return v1t_inv.status().WithContext("recovered V1 is singular");
  }
  out.v2 = (*v1t_inv) * freq.r12;
  out.v3 = (*v1t_inv) * r13;
  return out;
}

}  // namespace crowd::core
