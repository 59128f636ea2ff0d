#include "linalg/hessenberg.h"

#include <cmath>

namespace crowd::linalg {

Result<HessenbergForm> ReduceToHessenberg(const Matrix& a) {
  if (!a.IsSquare()) {
    return Status::Invalid("Hessenberg reduction requires a square matrix");
  }
  const size_t n = a.rows();
  HessenbergForm out{a, Matrix::Identity(n)};
  if (n < 3) return out;
  Matrix& h = out.h;
  Matrix& q = out.q;
  SmallBuffer<double> v(n);

  for (size_t k = 0; k + 2 < n; ++k) {
    // Householder vector annihilating h(k+2..n-1, k).
    double norm_x = 0.0;
    for (size_t i = k + 1; i < n; ++i) norm_x += h(i, k) * h(i, k);
    norm_x = std::sqrt(norm_x);
    if (norm_x < 1e-300) continue;

    double alpha = h(k + 1, k) >= 0.0 ? -norm_x : norm_x;
    // Entries k+1.. of the Householder vector; nothing reads the others.
    v[k + 1] = h(k + 1, k) - alpha;
    for (size_t i = k + 2; i < n; ++i) v[i] = h(i, k);
    double v_norm_sq = 0.0;
    for (size_t i = k + 1; i < n; ++i) v_norm_sq += v[i] * v[i];
    if (v_norm_sq < 1e-300) continue;
    const double beta = 2.0 / v_norm_sq;

    // H <- P H, P = I - beta v v^T (only rows k+1.. change).
    for (size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (size_t i = k + 1; i < n; ++i) dot += v[i] * h(i, j);
      dot *= beta;
      for (size_t i = k + 1; i < n; ++i) h(i, j) -= dot * v[i];
    }
    // H <- H P.
    for (size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (size_t j = k + 1; j < n; ++j) dot += h(i, j) * v[j];
      dot *= beta;
      for (size_t j = k + 1; j < n; ++j) h(i, j) -= dot * v[j];
    }
    // Q <- Q P (accumulate the similarity transform).
    for (size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (size_t j = k + 1; j < n; ++j) dot += q(i, j) * v[j];
      dot *= beta;
      for (size_t j = k + 1; j < n; ++j) q(i, j) -= dot * v[j];
    }
    // Clean exact zeros below the subdiagonal in column k.
    h(k + 1, k) = alpha;
    for (size_t i = k + 2; i < n; ++i) h(i, k) = 0.0;
  }
  return out;
}

bool IsUpperHessenberg(const Matrix& a, double tol) {
  if (!a.IsSquare()) return false;
  const double scale = std::max(1.0, a.MaxAbs());
  for (size_t i = 2; i < a.rows(); ++i) {
    for (size_t j = 0; j + 1 < i; ++j) {
      if (std::fabs(a(i, j)) > tol * scale) return false;
    }
  }
  return true;
}

}  // namespace crowd::linalg
