// Dense row-major matrix and vector types used throughout the library.
//
// All matrices in this project are small (k x k response-probability
// matrices with k <= ~10, or l x l triple-covariance matrices with
// l <= ~m/2), so this is a straightforward dense implementation with
// bounds checking in debug builds and no expression templates.
//
// Storage: a Matrix of up to kInlineEntries (16) entries — every k x k
// matrix of Algorithm A3 for k <= 4 — keeps them inline and never
// touches the heap; a larger one allocates, as a std::vector would.
// The spectral estimate builds and discards thousands of 3 x 3
// matrices per triple, so this is what keeps it off the allocator.
// SmallBuffer applies the same rule to the kernels' scratch vectors.
// data() exposes the row-major entries read-only; write entries with
// operator().

#ifndef CROWD_LINALG_MATRIX_H_
#define CROWD_LINALG_MATRIX_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/result.h"

namespace crowd::linalg {

using Vector = std::vector<double>;

/// Entries that a Matrix or SmallBuffer holds without a heap allocation.
inline constexpr size_t kInlineEntries = 16;

/// \brief A fixed-length array of a trivially copyable T: inline up to
/// kInlineEntries entries, on the heap above that. Entries are
/// uninitialized until written. A moved-from buffer is empty.
template <typename T>
class SmallBuffer {
 public:
  SmallBuffer() = default;
  explicit SmallBuffer(size_t size) { Reset(size); }
  SmallBuffer(const SmallBuffer& other) { CopyFrom(other); }
  SmallBuffer(SmallBuffer&& other) noexcept { MoveFrom(&other); }
  SmallBuffer& operator=(const SmallBuffer& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  SmallBuffer& operator=(SmallBuffer&& other) noexcept {
    if (this != &other) MoveFrom(&other);
    return *this;
  }

  /// Changes the length to `size`; the entries become uninitialized.
  void Reset(size_t size) {
    if (size <= kInlineEntries) {
      heap_.reset();
      data_ = inline_;
    } else if (heap_ == nullptr || size != size_) {
      heap_ = std::make_unique_for_overwrite<T[]>(size);
      data_ = heap_.get();
    }
    size_ = size;
  }

  size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](size_t i) {
    CROWD_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    CROWD_DCHECK(i < size_);
    return data_[i];
  }

 private:
  void CopyFrom(const SmallBuffer& other) {
    Reset(other.size_);
    std::copy_n(other.data_, other.size_, data_);
  }
  void MoveFrom(SmallBuffer* other) {
    if (other->heap_ != nullptr) {
      heap_ = std::move(other->heap_);
      data_ = heap_.get();
      size_ = other->size_;
    } else {
      CopyFrom(*other);
    }
    other->Reset(0);
  }

  size_t size_ = 0;
  T* data_ = inline_;  // inline_ or heap_.get().
  T inline_[kInlineEntries];
  std::unique_ptr<T[]> heap_;
};

/// \brief Dense row-major matrix of doubles.
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() = default;
  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  /// A moved-from matrix is 0x0.
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::move(other.data_)) {}
  Matrix& operator=(Matrix&& other) noexcept {
    if (this != &other) {
      rows_ = std::exchange(other.rows_, 0);
      cols_ = std::exchange(other.cols_, 0);
      data_ = std::move(other.data_);
    }
    return *this;
  }

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

  /// The rows() * cols() entries, row-major.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

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
  SmallBuffer<double> data_;
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
/// The same on the `n` entries at `v`.
bool Normalize(double* v, size_t n);

}  // namespace crowd::linalg

#endif  // CROWD_LINALG_MATRIX_H_
