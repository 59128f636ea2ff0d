#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/cpu.h"
#include "util/string_util.h"

namespace crowd::linalg {

namespace cholesky_internal {

namespace {

// Vectors per block of rows: four chains per column to hide the
// subtraction latency. A block is 4N rows, N lanes per vector.
constexpr size_t kBlockVectors = 4;

// Calls body.template operator()<V>() for the vector count
// V = ceil(rows / N), 1 <= rows <= N kBlockVectors.
template <size_t N, size_t V = kBlockVectors, typename Body>
__attribute__((always_inline)) inline void WithVectorsFor(size_t rows,
                                                          Body&& body) {
  if constexpr (V > 1) {
    if (rows <= (V - 1) * N) {
      WithVectorsFor<N, V - 1>(rows, body);
      return;
    }
  }
  body.template operator()<V>();
}

// The bodies below are inlined into both variants, so their vector
// arithmetic compiles under the variant's target: N = 2 lanes on the
// baseline, N = 4 under AVX2. Entry (i, j) of the factor is a(i, j)
// minus L(i, k) L(j, k) for k = 0, 1, ..., j-1, in that order, over the
// pivot sqrt(a(j, j) - sum_k L(j, k)^2); each row of a block keeps that
// chain in its own lane.

// Rows i .. i + rows - 1 (rows <= N V, i >= j + 2) of columns j and
// j + 1 together: each loaded L^T entry serves both columns, and the
// two columns' chains are independent until the last term of column
// j + 1, k = j, which needs L(i, j). The lanes past `rows` compute on
// the entries that follow row k's last one (row k + 1 of L^T, which
// exists: k < j <= n - 2) and are not stored.
template <size_t N, size_t V>
__attribute__((always_inline)) inline void FactorRowPair(
    const Matrix& a, double* lt, size_t n, size_t i, size_t rows, size_t j,
    double pivot, double l_next, double pivot_next) {
  using Vec = typename util::Simd<N>::Doubles;
  double entries[2][N * V] = {};
  for (size_t r = 0; r < rows; ++r) {
    entries[0][r] = a(i + r, j);
    entries[1][r] = a(i + r, j + 1);
  }
  Vec s0[V], s1[V];
  std::memcpy(s0, entries[0], sizeof s0);
  std::memcpy(s1, entries[1], sizeof s1);
  for (size_t k = 0; k < j; ++k) {
    const double* row = lt + k * n;
    const double ljk = row[j];
    const double lj1k = row[j + 1];
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) {
      Vec x;
      std::memcpy(&x, row + i + v * N, sizeof x);
      s0[v] -= x * ljk;
      s1[v] -= x * lj1k;
    }
  }
#pragma GCC unroll 8
  for (size_t v = 0; v < V; ++v) {
    s0[v] /= pivot;
    s1[v] -= s0[v] * l_next;
    s1[v] /= pivot_next;
  }
  std::memcpy(entries[0], s0, sizeof s0);
  std::memcpy(entries[1], s1, sizeof s1);
  std::copy_n(entries[0], rows, lt + j * n + i);
  std::copy_n(entries[1], rows, lt + (j + 1) * n + i);
}

template <size_t N>
__attribute__((always_inline)) inline Status Factor(const Matrix& a,
                                                    double pivot_tol,
                                                    Matrix* lt_matrix) {
  const size_t n = a.rows();
  double* lt = lt_matrix->data();
  // diag[r] is a(r, r) minus L(r, k)^2 over the columns k done so far,
  // in ascending k: the pivot's chain, advanced column by column so
  // that it is ready when column r starts.
  Vector diag = a.Diag();
  auto pivot_at = [&](size_t j) -> Result<double> {
    if (!(diag[j] > pivot_tol)) {
      return Status::NumericalError(StrFormat(
          "Cholesky: matrix is not positive definite (pivot %.3e at "
          "column %zu)",
          diag[j], j));
    }
    lt[j * n + j] = std::sqrt(diag[j]);
    return lt[j * n + j];
  };
  // Columns two at a time: j and j + 1.
  for (size_t j = 0; j < n; j += 2) {
    CROWD_ASSIGN_OR_RETURN(const double pivot, pivot_at(j));
    if (j + 1 == n) break;
    // L(j + 1, j), which column j + 1 needs first, as one scalar chain.
    double sum = a(j + 1, j);
    for (size_t k = 0; k < j; ++k) sum -= lt[k * n + j + 1] * lt[k * n + j];
    const double l_next = sum / pivot;
    lt[j * n + j + 1] = l_next;
    diag[j + 1] -= l_next * l_next;
    CROWD_ASSIGN_OR_RETURN(const double pivot_next, pivot_at(j + 1));
    size_t i = j + 2;
    for (; i + N * kBlockVectors <= n; i += N * kBlockVectors) {
      FactorRowPair<N, kBlockVectors>(a, lt, n, i, N * kBlockVectors, j,
                                      pivot, l_next, pivot_next);
    }
    if (i < n) {
      WithVectorsFor<N>(n - i, [&]<size_t V>() {
        FactorRowPair<N, V>(a, lt, n, i, n - i, j, pivot, l_next,
                            pivot_next);
      });
    }
    const double* column = lt + j * n;
    const double* column_next = column + n;
    for (size_t r = j + 2; r < n; ++r) {
      diag[r] -= column[r] * column[r];
      diag[r] -= column_next[r] * column_next[r];
    }
  }
  return Status::OK();
}

// Forward sweep for rows i .. i + rows - 1 of L y = b, rows <= N V:
// y[r] is b[r] minus L(r, k) y[k] for k = 0, ..., r-1 in order. The
// block runs the shared prefix k < i in its lanes, then finishes its
// own columns in the same k order one row at a time. Lanes past `rows`
// read past row k's end into row k + 1 of L^T, as in FactorRowPair
// (k < i < n), and are dropped.
template <size_t N, size_t V>
__attribute__((always_inline)) inline void ForwardRows(const double* lt,
                                                       size_t n, size_t i,
                                                       size_t rows,
                                                       const Vector& b,
                                                       Vector* y) {
  using Vec = typename util::Simd<N>::Doubles;
  double acc[N * V] = {};
  std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(i), rows, acc);
  Vec s[V];
  std::memcpy(s, acc, sizeof s);
  for (size_t k = 0; k < i; ++k) {
    const double yk = (*y)[k];
    const double* column = lt + k * n + i;
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) {
      Vec x;
      std::memcpy(&x, column + v * N, sizeof x);
      s[v] -= x * yk;
    }
  }
  std::memcpy(acc, s, sizeof acc);
  for (size_t c = 0; c < rows; ++c) {
    const size_t k = i + c;
    const double yk = acc[c] / lt[k * n + k];
    (*y)[k] = yk;
    for (size_t r = c + 1; r < rows; ++r) acc[r] -= lt[k * n + i + r] * yk;
  }
}

template <size_t N>
__attribute__((always_inline)) inline Vector Solve(const Matrix& lt_matrix,
                                                   const Vector& b) {
  const size_t n = lt_matrix.rows();
  const double* lt = lt_matrix.data();
  Vector y(n);
  size_t i = 0;
  for (; i + N * kBlockVectors <= n; i += N * kBlockVectors) {
    ForwardRows<N, kBlockVectors>(lt, n, i, N * kBlockVectors, b, &y);
  }
  if (i < n) {
    WithVectorsFor<N>(n - i, [&]<size_t V>() {
      ForwardRows<N, V>(lt, n, i, n - i, b, &y);
    });
  }
  // Backward: L^T x = y. x[r] subtracts the terms k = r+1, ... in
  // ascending order, so a lower row's first terms are the unknowns just
  // above it: this sweep stays one row at a time, along row r of L^T.
  Vector x(n);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t r = ii - 1;
    const double* row = lt + r * n;
    double sum = y[r];
    for (size_t k = r + 1; k < n; ++k) sum -= row[k] * x[k];
    x[r] = sum / row[r];
  }
  return x;
}

}  // namespace

Status FactorPortable(const Matrix& a, double pivot_tol, Matrix* lt) {
  return Factor<2>(a, pivot_tol, lt);
}

CROWD_TARGET_AVX2 Status FactorAvx2(const Matrix& a, double pivot_tol,
                                    Matrix* lt) {
  return Factor<4>(a, pivot_tol, lt);
}

Vector SolvePortable(const Matrix& lt, const Vector& b) {
  return Solve<2>(lt, b);
}

CROWD_TARGET_AVX2 Vector SolveAvx2(const Matrix& lt, const Vector& b) {
  return Solve<4>(lt, b);
}

}  // namespace cholesky_internal

namespace {

struct Kernels {
  Status (*factor)(const Matrix&, double, Matrix*);
  Vector (*solve)(const Matrix&, const Vector&);
};

const Kernels& Selected() {
  using namespace cholesky_internal;
  static const Kernels kernels =
      util::CpuHasAvx2() ? Kernels{FactorAvx2, SolveAvx2}
                         : Kernels{FactorPortable, SolvePortable};
  return kernels;
}

}  // namespace

Result<CholeskyDecomposition> CholeskyDecomposition::Compute(
    const Matrix& a, double pivot_tol) {
  if (!a.IsSquare()) {
    return Status::Invalid("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  if (n == 0) return Status::Invalid("Cholesky of an empty matrix");
  if (!a.IsSymmetric(1e-8 * std::max(1.0, a.MaxAbs()))) {
    return Status::Invalid("Cholesky requires a symmetric matrix");
  }
  Matrix lt(n, n);
  CROWD_RETURN_NOT_OK(Selected().factor(a, pivot_tol, &lt));
  return CholeskyDecomposition(std::move(lt));
}

Result<Vector> CholeskyDecomposition::Solve(const Vector& b) const {
  if (b.size() != size()) {
    return Status::Invalid("Cholesky solve: dimension mismatch");
  }
  return Selected().solve(lt_, b);
}

Result<Matrix> CholeskyDecomposition::Inverse() const {
  const size_t n = size();
  Matrix inverse(n, n);
  Vector unit(n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    unit[j] = 1.0;
    CROWD_ASSIGN_OR_RETURN(Vector column, Solve(unit));
    unit[j] = 0.0;
    for (size_t i = 0; i < n; ++i) inverse(i, j) = column[i];
  }
  return inverse;
}

double CholeskyDecomposition::Determinant() const {
  double det = 1.0;
  for (size_t i = 0; i < size(); ++i) det *= lt_(i, i);
  return det * det;
}

bool IsPositiveDefinite(const Matrix& a) {
  return CholeskyDecomposition::Compute(a).ok();
}

}  // namespace crowd::linalg
