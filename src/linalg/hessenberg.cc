#include "linalg/hessenberg.h"

#include <cmath>

namespace crowd::linalg {

Result<Matrix> ReduceToHessenberg(const Matrix& a) {
  if (!a.IsSquare()) {
    return Status::Invalid("Hessenberg reduction requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix h = a;
  if (n < 3) return h;
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
    // Clean exact zeros below the subdiagonal in column k.
    h(k + 1, k) = alpha;
    for (size_t i = k + 2; i < n; ++i) h(i, k) = 0.0;
  }
  return h;
}

}  // namespace crowd::linalg
