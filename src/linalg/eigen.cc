#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>

#include "linalg/francis_qr.h"
#include "linalg/lu.h"
#include "util/string_util.h"

namespace crowd::linalg {

namespace {

// Inverse iteration in place: x <- normalize((A - shift I)^{-1} x),
// `steps` times; `rhs` is n entries of scratch for the right-hand side.
// Returns false when the shifted matrix is singular even after
// perturbation (caller retries with a larger perturbation).
bool InverseIterate(const Matrix& a, double shift, int steps, double* x,
                    double* rhs) {
  const size_t n = a.rows();
  Matrix shifted = a;
  for (size_t i = 0; i < n; ++i) shifted(i, i) -= shift;
  auto lu = LuDecomposition::Compute(shifted, /*pivot_tol=*/1e-280);
  if (!lu.ok()) return false;
  for (int step = 0; step < steps; ++step) {
    std::copy_n(x, n, rhs);
    lu->Substitute(rhs, 1, x, 1);
    if (!Normalize(x, n)) return false;
  }
  return true;
}

// Deterministic, index-dependent start vector; avoids accidental
// orthogonality to the sought eigenvector.
void StartVector(size_t n, size_t which, double* x) {
  for (size_t i = 0; i < n; ++i) {
    x[i] = 1.0 + 0.37 * std::sin(static_cast<double>(i * 131 + which * 17 + 1));
  }
  Normalize(x, n);
}

}  // namespace

Result<EigenDecomposition> EigenGeneralReal(const Matrix& a,
                                            const EigenOptions& options) {
  if (!a.IsSquare()) {
    return Status::Invalid("EigenGeneralReal requires a square matrix");
  }
  const size_t n = a.rows();
  if (n == 0) return Status::Invalid("EigenGeneralReal of empty matrix");

  CROWD_ASSIGN_OR_RETURN(auto complex_values, GeneralEigenvalues(a));

  double spectral_scale = 1.0;
  for (const auto& ev : complex_values) {
    spectral_scale = std::max(spectral_scale, std::abs(ev));
  }
  EigenDecomposition out;
  Vector& values = out.values;
  values.reserve(n);
  for (const auto& ev : complex_values) {
    if (std::fabs(ev.imag()) > options.complex_tol * spectral_scale) {
      return Status::NumericalError(StrFormat(
          "EigenGeneralReal: complex eigenvalue %.6g%+.6gi beyond "
          "tolerance",
          ev.real(), ev.imag()));
    }
    values.push_back(ev.real());
  }
  std::sort(values.begin(), values.end(), std::greater<double>());
  out.vectors = Matrix(n, n);

  // The eigenvector being refined and the substitution's right-hand
  // side.
  SmallBuffer<double> scratch(2 * n);
  double* x = scratch.data();
  double* rhs = x + n;
  for (size_t idx = 0; idx < n; ++idx) {
    const double lambda = values[idx];
    // Perturb the shift so (A - shift I) is invertible; the inverse
    // power method converges to the nearest eigenvector regardless.
    double delta = 1e-9 * spectral_scale + 1e-12;
    bool converged = false;
    for (int attempt = 0; attempt < 6 && !converged; ++attempt) {
      StartVector(n, idx + static_cast<size_t>(attempt) * 1000, x);
      converged = InverseIterate(a, lambda + delta,
                                 options.inverse_iterations, x, rhs);
      delta *= 32.0;
    }
    if (!converged) {
      return Status::NumericalError(StrFormat(
          "EigenGeneralReal: inverse iteration failed for eigenvalue "
          "%.6g",
          lambda));
    }
    // Deterministic sign: largest-magnitude component positive.
    size_t arg_max = 0;
    for (size_t i = 1; i < n; ++i) {
      if (std::fabs(x[i]) > std::fabs(x[arg_max])) arg_max = i;
    }
    if (x[arg_max] < 0.0) {
      for (size_t i = 0; i < n; ++i) x[i] = -x[i];
    }
    for (size_t i = 0; i < n; ++i) out.vectors(i, idx) = x[i];
  }
  return out;
}

}  // namespace crowd::linalg
