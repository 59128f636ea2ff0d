#include "linalg/lu.h"

#include <cmath>

#include "util/string_util.h"

namespace crowd::linalg {

Result<LuDecomposition> LuDecomposition::Compute(const Matrix& a,
                                                 double pivot_tol) {
  if (!a.IsSquare()) {
    return Status::Invalid("LU requires a square matrix");
  }
  const size_t n = a.rows();
  if (n == 0) return Status::Invalid("LU of an empty matrix");

  Matrix lu = a;
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  int sign = 1;

  // Scale factors for scaled partial pivoting; improves pivot choice on
  // badly row-scaled matrices (covariance matrices here can have rows
  // spanning several orders of magnitude).
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
    // Pick the pivot row.
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
      sign = -sign;
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
  return LuDecomposition(std::move(lu), std::move(perm), sign);
}

Result<Vector> LuDecomposition::Solve(const Vector& b) const {
  const size_t n = size();
  if (b.size() != n) {
    return Status::Invalid("LU solve: dimension mismatch");
  }
  Vector x(n);
  // Forward substitution on L (unit diagonal), applying P to b.
  for (size_t i = 0; i < n; ++i) {
    double sum = b[perm_[i]];
    for (size_t j = 0; j < i; ++j) sum -= lu_(i, j) * x[j];
    x[i] = sum;
  }
  // Back substitution on U.
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double sum = x[i];
    for (size_t j = i + 1; j < n; ++j) sum -= lu_(i, j) * x[j];
    x[i] = sum / lu_(i, i);
  }
  return x;
}

Result<Matrix> LuDecomposition::Solve(const Matrix& b) const {
  if (b.rows() != size()) {
    return Status::Invalid("LU solve: dimension mismatch");
  }
  Matrix x(b.rows(), b.cols());
  for (size_t j = 0; j < b.cols(); ++j) {
    CROWD_ASSIGN_OR_RETURN(Vector col, Solve(b.Column(j)));
    for (size_t i = 0; i < b.rows(); ++i) x(i, j) = col[i];
  }
  return x;
}

Result<Matrix> LuDecomposition::Inverse() const {
  return Solve(Matrix::Identity(size()));
}

double LuDecomposition::Determinant() const {
  double det = perm_sign_;
  for (size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

Result<Vector> SolveLinearSystem(const Matrix& a, const Vector& b) {
  CROWD_ASSIGN_OR_RETURN(auto lu, LuDecomposition::Compute(a));
  return lu.Solve(b);
}

Result<Matrix> Inverse(const Matrix& a) {
  CROWD_ASSIGN_OR_RETURN(auto lu, LuDecomposition::Compute(a));
  return lu.Inverse();
}

Result<double> Determinant(const Matrix& a) {
  if (!a.IsSquare()) return Status::Invalid("determinant of non-square");
  auto lu = LuDecomposition::Compute(a);
  if (!lu.ok()) {
    // Singular to working precision means determinant ~zero rather than
    // an error.
    if (lu.status().IsNumericalError()) return 0.0;
    return lu.status();
  }
  return lu->Determinant();
}

}  // namespace crowd::linalg
