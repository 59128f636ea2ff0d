#include "core/kary_estimator.h"

#include <cmath>

#include "linalg/matrix_functions.h"
#include "stats/normal.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace crowd::core {

namespace {

// The Jacobian of ProbEstimate with respect to the perturbable counts
// cells: jacobian[worker][row][col] is a vector over cells.
struct Jacobian {
  std::vector<CountsCell> cells;
  // Flattened: entry index = ((worker * k) + row) * k + col; each holds
  // the derivative with respect to every cell.
  std::vector<std::vector<double>> derivatives;
};

size_t OutputIndex(int k, int worker, int row, int col) {
  return (static_cast<size_t>(worker) * k + static_cast<size_t>(row)) * k +
         static_cast<size_t>(col);
}

// Central finite differences, falling back to one-sided when one of
// the perturbed ProbEstimate calls fails (Step 6 of Algorithm A3).
Result<Jacobian> ComputeJacobian(const CountsTensor& counts,
                                 const ProbEstimateResult& base,
                                 const KaryOptions& options) {
  const int k = counts.arity();
  Jacobian jac;
  jac.cells = counts.CellsWithMinWorkers(
      options.paper_strict_jacobian ? 3 : 2);
  const size_t num_outputs = static_cast<size_t>(3) * k * k;
  jac.derivatives.assign(num_outputs,
                         std::vector<double>(jac.cells.size(), 0.0));

  const double eps = options.epsilon;
  CountsTensor work = counts;
  for (size_t cell_idx = 0; cell_idx < jac.cells.size(); ++cell_idx) {
    const CountsCell& cell = jac.cells[cell_idx];
    // x + eps - 2 eps + eps need not give x back (it does not for 2-4
    // and 16-31 at eps = 0.01), and a drifted cell would shift every
    // later derivative: restore the saved value.
    const double original = work.at(cell);
    work.at(cell) += eps;
    auto plus = ProbEstimate(work, options.prob_estimate);
    work.at(cell) -= 2.0 * eps;
    auto minus = ProbEstimate(work, options.prob_estimate);
    work.at(cell) = original;

    const ProbEstimateResult* hi = plus.ok() ? &*plus : nullptr;
    const ProbEstimateResult* lo = minus.ok() ? &*minus : nullptr;
    double denom = 2.0 * eps;
    if (hi == nullptr && lo == nullptr) {
      // Derivative unavailable at this cell; leave it at zero (the
      // cell count is typically zero and barely enters the estimate).
      CROWD_LOG_DEBUG << "Jacobian cell (" << cell.a << "," << cell.b
                      << "," << cell.c << "): both perturbations failed";
      continue;
    }
    if (hi == nullptr || lo == nullptr) {
      denom = eps;  // One-sided difference against the base point.
    }
    for (int worker = 0; worker < 3; ++worker) {
      const linalg::Matrix& hi_m = (hi != nullptr ? *hi : base).v(worker);
      const linalg::Matrix& lo_m = (lo != nullptr ? *lo : base).v(worker);
      for (int r = 0; r < k; ++r) {
        for (int c = 0; c < k; ++c) {
          jac.derivatives[OutputIndex(k, worker, r, c)][cell_idx] =
              (hi_m(r, c) - lo_m(r, c)) / denom;
        }
      }
    }
  }
  return jac;
}

}  // namespace

Result<KaryResult> KaryEvaluateCounts(const CountsTensor& counts,
                                      const KaryOptions& options) {
  const int k = counts.arity();
  CROWD_ASSIGN_OR_RETURN(ProbEstimateResult base,
                         ProbEstimate(counts, options.prob_estimate));
  CROWD_ASSIGN_OR_RETURN(Jacobian jac,
                         ComputeJacobian(counts, base, options));

  // Covariance matrix over the perturbable cells (Lemma 9). Dense is
  // fine: (k+1)^3 <= 343 cells for the arities in scope.
  const size_t num_cells = jac.cells.size();
  const linalg::Matrix cell_cov = counts.CovarianceMatrix(jac.cells);

  CROWD_ASSIGN_OR_RETURN(double z, stats::TwoSidedZ(options.confidence));

  KaryResult out;
  out.rotations_used = base.rotations_used;
  out.selectivity.assign(k, 0.0);
  for (int worker = 0; worker < 3; ++worker) {
    KaryWorkerEstimate& est = out.workers[worker];
    est.v = base.v(worker);
    est.v_deviation = linalg::Matrix(k, k);
    est.intervals.assign(k, std::vector<stats::ConfidenceInterval>(k));

    // Row sums of V estimate sqrt(S_r); needed to normalize into P.
    linalg::Vector row_sums(k, 0.0);
    for (int r = 0; r < k; ++r) {
      for (int c = 0; c < k; ++c) row_sums[r] += est.v(r, c);
    }

    est.p = est.v;
    for (int r = 0; r < k; ++r) {
      if (std::fabs(row_sums[r]) < 1e-12) {
        return Status::NumericalError(StrFormat(
            "worker %d: recovered S^{1/2}P row %d sums to ~0", worker,
            r));
      }
      for (int c = 0; c < k; ++c) est.p(r, c) /= row_sums[r];
      out.selectivity[r] += row_sums[r] * row_sums[r] / 3.0;
    }
    // Spectral noise can push individual entries slightly outside
    // [0, 1]; project the *point estimate* back onto the simplex
    // (clamp, then renormalize rows). Intervals are left untouched —
    // their coverage guarantee is about the unprojected estimator.
    linalg::ClampEntries(&est.p, 0.0, 1.0);
    CROWD_RETURN_NOT_OK(linalg::NormalizeRowsToSumOne(&est.p));

    // Per-entry delta method: Var = d^T Cov d over the cells, then the
    // V interval is mapped to a P interval by the row normalization.
    for (int r = 0; r < k; ++r) {
      for (int c = 0; c < k; ++c) {
        const std::vector<double>& d =
            jac.derivatives[OutputIndex(k, worker, r, c)];
        double variance = 0.0;
        for (size_t x = 0; x < num_cells; ++x) {
          if (d[x] == 0.0) continue;
          for (size_t y = 0; y < num_cells; ++y) {
            variance += d[x] * d[y] * cell_cov(x, y);
          }
        }
        variance = std::max(variance, 0.0);
        double dev = std::sqrt(variance);
        est.v_deviation(r, c) = dev;
        stats::ConfidenceInterval ci;
        ci.confidence = options.confidence;
        ci.lo = (est.v(r, c) - z * dev) / row_sums[r];
        ci.hi = (est.v(r, c) + z * dev) / row_sums[r];
        if (ci.lo > ci.hi) std::swap(ci.lo, ci.hi);  // Negative row sum.
        est.intervals[r][c] = ci;
      }
    }
  }

  // Normalize the selectivity estimate onto the simplex.
  double total = 0.0;
  for (double s : out.selectivity) total += s;
  if (total > 0.0) {
    for (double& s : out.selectivity) s /= total;
  }
  return out;
}

Result<KaryResult> KaryEvaluate(const data::ResponseMatrix& responses,
                                data::WorkerId w1, data::WorkerId w2,
                                data::WorkerId w3,
                                const KaryOptions& options) {
  CROWD_ASSIGN_OR_RETURN(
      CountsTensor counts,
      CountsTensor::FromResponses(responses, w1, w2, w3));
  return KaryEvaluateCounts(counts, options);
}

}  // namespace crowd::core
