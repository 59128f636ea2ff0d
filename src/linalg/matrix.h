// Dense row-major matrix and vector types used throughout the library.
//
// All matrices in this project are small (k x k response-probability
// matrices with k <= ~10, or l x l triple-covariance matrices with
// l <= ~m/2), so this is a straightforward dense implementation with
// bounds checking in debug builds and no expression templates.

#ifndef CROWD_LINALG_MATRIX_H_
#define CROWD_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/result.h"

namespace crowd::linalg {

using Vector = std::vector<double>;

/// \brief Dense row-major matrix of doubles.
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() = default;

  /// A rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  /// From nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(size_t n);
  /// Square matrix with `diag` on the diagonal.
  static Matrix Diagonal(const Vector& diag);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  bool IsSquare() const { return rows_ == cols_; }

  double& operator()(size_t i, size_t j) {
    CROWD_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(size_t i, size_t j) const {
    CROWD_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// Raw storage (row-major), e.g. for tests.
  const std::vector<double>& data() const { return data_; }

  Matrix Transposed() const;

  /// Extracts row/column i as a vector.
  Vector Row(size_t i) const;
  Vector Column(size_t j) const;
  /// The main diagonal (square matrices).
  Vector Diag() const;

  void SwapRows(size_t a, size_t b);
  void SwapColumns(size_t a, size_t b);

  /// Elementwise operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Sum of squares of all entries, its square root, and the largest
  /// absolute entry.
  double FrobeniusNormSquared() const;
  double FrobeniusNorm() const;
  double MaxAbs() const;

  /// Largest absolute difference against `other` (must match shape).
  double MaxAbsDiff(const Matrix& other) const;

  /// True when shapes match and all entries differ by at most `tol`.
  bool ApproxEquals(const Matrix& other, double tol = 1e-9) const;

  /// Whether |a(i,j) - a(j,i)| <= tol for all entries.
  bool IsSymmetric(double tol = 1e-12) const;

  /// Multi-line human-readable rendering, mostly for debugging/tests.
  std::string ToString(int precision = 6) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double scalar);
Matrix operator*(double scalar, Matrix a);
/// Matrix product; inner dimensions must agree.
Matrix operator*(const Matrix& a, const Matrix& b);
/// Matrix-vector product.
Vector operator*(const Matrix& a, const Vector& x);

/// Dot product of equal-length vectors.
double Dot(const Vector& a, const Vector& b);
/// Euclidean norm.
double Norm(const Vector& a);
/// Sum of absolute values.
double L1Norm(const Vector& a);
/// Scales `v` so that Norm(v) == 1; returns false if v is ~zero.
bool Normalize(Vector* v);

}  // namespace crowd::linalg

#endif  // CROWD_LINALG_MATRIX_H_
