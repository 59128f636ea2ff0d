// The allocating LU solve/inverse, Hessenberg reduction, general real
// eigendecomposition and principal square root that the inline-storage
// kernels in src/linalg must reproduce bit for bit: one heap vector per
// column, per pivot scale, per Householder vector and per inverse-
// iteration step, exactly as the library computed them before its
// small matrices moved inline. Each routine performs the same
// floating-point operations in the same order as the library, so the
// two agree exactly when no multiply-add is contracted into an FMA (the
// build passes -ffp-contract=off). Failures carry the library's status
// codes and messages. IsUpperHessenberg, the shape check, lives here
// too: no library code needs it.

#ifndef CROWD_TESTS_LINALG_REFERENCE_H_
#define CROWD_TESTS_LINALG_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "linalg/francis_qr.h"
#include "linalg/matrix.h"
#include "util/result.h"
#include "util/string_util.h"

namespace crowd::linalg {

/// Same shape and the same bits in every entry.
inline bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

inline bool BitEqual(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// PA = LU, packed like LuDecomposition's factor.
struct ReferenceLu {
  Matrix lu;
  std::vector<size_t> perm;
};

inline Result<ReferenceLu> ReferenceLuCompute(const Matrix& a,
                                              double pivot_tol = 1e-13) {
  if (!a.IsSquare()) {
    return Status::Invalid("LU requires a square matrix");
  }
  const size_t n = a.rows();
  if (n == 0) return Status::Invalid("LU of an empty matrix");
  Matrix lu = a;
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  std::vector<double> scale(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double row_max = 0.0;
    for (size_t j = 0; j < n; ++j) {
      row_max = std::max(row_max, std::fabs(lu(i, j)));
    }
    if (row_max == 0.0) {
      return Status::NumericalError(
          StrFormat("LU: row %zu is identically zero", i));
    }
    scale[i] = 1.0 / row_max;
  }
  for (size_t col = 0; col < n; ++col) {
    size_t pivot_row = col;
    double best = -1.0;
    for (size_t i = col; i < n; ++i) {
      double candidate = scale[i] * std::fabs(lu(i, col));
      if (candidate > best) {
        best = candidate;
        pivot_row = i;
      }
    }
    if (pivot_row != col) {
      lu.SwapRows(pivot_row, col);
      std::swap(perm[pivot_row], perm[col]);
      std::swap(scale[pivot_row], scale[col]);
    }
    double pivot = lu(col, col);
    if (std::fabs(pivot) < pivot_tol) {
      return Status::NumericalError(StrFormat(
          "LU: matrix is singular to working precision (pivot %.3e at "
          "column %zu)",
          pivot, col));
    }
    for (size_t i = col + 1; i < n; ++i) {
      double factor = lu(i, col) / pivot;
      lu(i, col) = factor;
      if (factor == 0.0) continue;
      for (size_t j = col + 1; j < n; ++j) {
        lu(i, j) -= factor * lu(col, j);
      }
    }
  }
  return ReferenceLu{std::move(lu), std::move(perm)};
}

inline Vector ReferenceLuSolve(const ReferenceLu& f, const Vector& b) {
  const size_t n = f.lu.rows();
  Vector x(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[f.perm[i]];
    for (size_t j = 0; j < i; ++j) sum -= f.lu(i, j) * x[j];
    x[i] = sum;
  }
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double sum = x[i];
    for (size_t j = i + 1; j < n; ++j) sum -= f.lu(i, j) * x[j];
    x[i] = sum / f.lu(i, i);
  }
  return x;
}

/// Column by column, through a copied column each.
inline Matrix ReferenceLuSolve(const ReferenceLu& f, const Matrix& b) {
  Matrix x(b.rows(), b.cols());
  for (size_t j = 0; j < b.cols(); ++j) {
    Vector col = ReferenceLuSolve(f, b.Column(j));
    for (size_t i = 0; i < b.rows(); ++i) x(i, j) = col[i];
  }
  return x;
}

inline Result<Matrix> ReferenceInverse(const Matrix& a) {
  CROWD_ASSIGN_OR_RETURN(ReferenceLu f, ReferenceLuCompute(a));
  return ReferenceLuSolve(f, Matrix::Identity(a.rows()));
}

/// True when all entries below the first subdiagonal vanish (within
/// `tol` relative to the matrix scale).
inline bool IsUpperHessenberg(const Matrix& a, double tol = 1e-12) {
  if (!a.IsSquare()) return false;
  const double scale = std::max(1.0, a.MaxAbs());
  for (size_t i = 2; i < a.rows(); ++i) {
    for (size_t j = 0; j + 1 < i; ++j) {
      if (std::fabs(a(i, j)) > tol * scale) return false;
    }
  }
  return true;
}

/// H and the accumulated Q of A = Q H Q^T.
inline std::pair<Matrix, Matrix> ReferenceReduceToHessenberg(
    const Matrix& a) {
  const size_t n = a.rows();
  Matrix h = a;
  Matrix q = Matrix::Identity(n);
  if (n < 3) return {h, q};
  for (size_t k = 0; k + 2 < n; ++k) {
    double norm_x = 0.0;
    for (size_t i = k + 1; i < n; ++i) norm_x += h(i, k) * h(i, k);
    norm_x = std::sqrt(norm_x);
    if (norm_x < 1e-300) continue;
    double alpha = h(k + 1, k) >= 0.0 ? -norm_x : norm_x;
    Vector v(n, 0.0);
    v[k + 1] = h(k + 1, k) - alpha;
    for (size_t i = k + 2; i < n; ++i) v[i] = h(i, k);
    double v_norm_sq = 0.0;
    for (size_t i = k + 1; i < n; ++i) v_norm_sq += v[i] * v[i];
    if (v_norm_sq < 1e-300) continue;
    const double beta = 2.0 / v_norm_sq;
    for (size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (size_t i = k + 1; i < n; ++i) dot += v[i] * h(i, j);
      dot *= beta;
      for (size_t i = k + 1; i < n; ++i) h(i, j) -= dot * v[i];
    }
    for (size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (size_t j = k + 1; j < n; ++j) dot += h(i, j) * v[j];
      dot *= beta;
      for (size_t j = k + 1; j < n; ++j) h(i, j) -= dot * v[j];
    }
    for (size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (size_t j = k + 1; j < n; ++j) dot += q(i, j) * v[j];
      dot *= beta;
      for (size_t j = k + 1; j < n; ++j) q(i, j) -= dot * v[j];
    }
    h(k + 1, k) = alpha;
    for (size_t i = k + 2; i < n; ++i) h(i, k) = 0.0;
  }
  return {h, q};
}

inline bool ReferenceNormalize(Vector* v) {
  double sum = 0.0;
  for (double x : *v) sum += x * x;
  double norm = std::sqrt(sum);
  if (norm < 1e-300) return false;
  for (double& x : *v) x /= norm;
  return true;
}

inline bool ReferenceInverseIterate(const Matrix& a, double shift,
                                    int steps, Vector* x) {
  Matrix shifted = a;
  for (size_t i = 0; i < a.rows(); ++i) shifted(i, i) -= shift;
  auto f = ReferenceLuCompute(shifted, /*pivot_tol=*/1e-280);
  if (!f.ok()) return false;
  for (int step = 0; step < steps; ++step) {
    *x = ReferenceLuSolve(*f, *x);
    if (!ReferenceNormalize(x)) return false;
  }
  return true;
}

/// Eigenvalues (descending) and unit eigenvectors, as EigenGeneralReal
/// with default options.
struct ReferenceEigen {
  Vector values;
  Matrix vectors;
};

inline Result<ReferenceEigen> ReferenceEigenGeneralReal(const Matrix& a) {
  const double complex_tol = 1e-6;
  const int inverse_iterations = 3;
  const size_t n = a.rows();
  CROWD_ASSIGN_OR_RETURN(
      auto complex_values,
      HessenbergEigenvalues(ReferenceReduceToHessenberg(a).first));
  double spectral_scale = 1.0;
  for (const auto& ev : complex_values) {
    spectral_scale = std::max(spectral_scale, std::abs(ev));
  }
  Vector values;
  for (const auto& ev : complex_values) {
    if (std::fabs(ev.imag()) > complex_tol * spectral_scale) {
      return Status::NumericalError(StrFormat(
          "EigenGeneralReal: complex eigenvalue %.6g%+.6gi beyond "
          "tolerance",
          ev.real(), ev.imag()));
    }
    values.push_back(ev.real());
  }
  std::sort(values.begin(), values.end(), std::greater<double>());
  ReferenceEigen out{values, Matrix(n, n)};
  for (size_t idx = 0; idx < n; ++idx) {
    const double lambda = values[idx];
    double delta = 1e-9 * spectral_scale + 1e-12;
    bool converged = false;
    Vector x;
    for (int attempt = 0; attempt < 6 && !converged; ++attempt) {
      const size_t which = idx + static_cast<size_t>(attempt) * 1000;
      x.assign(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        x[i] = 1.0 +
               0.37 * std::sin(static_cast<double>(i * 131 + which * 17 + 1));
      }
      ReferenceNormalize(&x);
      converged =
          ReferenceInverseIterate(a, lambda + delta, inverse_iterations, &x);
      delta *= 32.0;
    }
    if (!converged) {
      return Status::NumericalError(StrFormat(
          "EigenGeneralReal: inverse iteration failed for eigenvalue "
          "%.6g",
          lambda));
    }
    size_t arg_max = 0;
    for (size_t i = 1; i < n; ++i) {
      if (std::fabs(x[i]) > std::fabs(x[arg_max])) arg_max = i;
    }
    if (x[arg_max] < 0.0) {
      for (double& xi : x) xi = -xi;
    }
    for (size_t i = 0; i < n; ++i) out.vectors(i, idx) = x[i];
  }
  return out;
}

/// E D^{1/2} E^{-1} with the default SqrtOptions.
inline Result<Matrix> ReferencePrincipalSqrt(const Matrix& a) {
  const double clamp_floor = 1e-10;
  const double negative_tol = 0.5;
  CROWD_ASSIGN_OR_RETURN(ReferenceEigen eig, ReferenceEigenGeneralReal(a));
  double max_ev = 0.0;
  for (double v : eig.values) max_ev = std::max(max_ev, v);
  if (max_ev <= 0.0) {
    return Status::NumericalError(
        "matrix square root: no positive eigenvalue");
  }
  const double floor = clamp_floor * max_ev;
  for (double& v : eig.values) {
    if (v < -negative_tol * max_ev) {
      return Status::NumericalError(StrFormat(
          "matrix square root: eigenvalue %.6g is too negative "
          "(max eigenvalue %.6g)",
          v, max_ev));
    }
    v = std::max(v, floor);
  }
  Vector sqrt_values(eig.values.size());
  for (size_t i = 0; i < eig.values.size(); ++i) {
    sqrt_values[i] = std::sqrt(eig.values[i]);
  }
  CROWD_ASSIGN_OR_RETURN(Matrix e_inv, ReferenceInverse(eig.vectors));
  return eig.vectors * Matrix::Diagonal(sqrt_values) * e_inv;
}

}  // namespace crowd::linalg

#endif  // CROWD_TESTS_LINALG_REFERENCE_H_
