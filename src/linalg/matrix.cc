#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/string_util.h"

namespace crowd::linalg {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols) {
  std::fill(data_.begin(), data_.end(), fill);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.Reset(rows_ * cols_);
  double* out = data_.data();
  for (const auto& row : rows) {
    CROWD_CHECK_EQ(row.size(), cols_);
    out = std::copy(row.begin(), row.end(), out);
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& diag) {
  Matrix m(diag.size(), diag.size());
  for (size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Vector Matrix::Row(size_t i) const {
  CROWD_CHECK_LT(i, rows_);
  return Vector(data_.begin() + i * cols_, data_.begin() + (i + 1) * cols_);
}

Vector Matrix::Column(size_t j) const {
  CROWD_CHECK_LT(j, cols_);
  Vector col(rows_);
  for (size_t i = 0; i < rows_; ++i) col[i] = (*this)(i, j);
  return col;
}

Vector Matrix::Diag() const {
  CROWD_CHECK(IsSquare());
  Vector d(rows_);
  for (size_t i = 0; i < rows_; ++i) d[i] = (*this)(i, i);
  return d;
}

void Matrix::SwapRows(size_t a, size_t b) {
  CROWD_CHECK(a < rows_ && b < rows_);
  if (a == b) return;
  for (size_t j = 0; j < cols_; ++j) {
    std::swap((*this)(a, j), (*this)(b, j));
  }
}

void Matrix::SwapColumns(size_t a, size_t b) {
  CROWD_CHECK(a < cols_ && b < cols_);
  if (a == b) return;
  for (size_t i = 0; i < rows_; ++i) {
    std::swap((*this)(i, a), (*this)(i, b));
  }
}

Matrix& Matrix::operator+=(const Matrix& other) {
  CROWD_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  CROWD_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

double Matrix::FrobeniusNormSquared() const {
  double sum = 0.0;
  for (double x : data_) sum += x * x;
  return sum;
}

double Matrix::FrobeniusNorm() const {
  return std::sqrt(FrobeniusNormSquared());
}

double Matrix::MaxAbs() const {
  // Four running maxima: one chain of dependent max operations is bound
  // by their latency. The largest entry is the same in any order (a
  // NaN never wins a std::max against the running value).
  double best[4] = {0.0, 0.0, 0.0, 0.0};
  const size_t size = data_.size();
  size_t k = 0;
  for (; k + 4 <= size; k += 4) {
    for (size_t r = 0; r < 4; ++r) {
      best[r] = std::max(best[r], std::fabs(data_[k + r]));
    }
  }
  for (; k < size; ++k) best[0] = std::max(best[0], std::fabs(data_[k]));
  return std::max(std::max(best[0], best[1]), std::max(best[2], best[3]));
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  CROWD_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double best = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    best = std::max(best, std::fabs(data_[i] - other.data_[i]));
  }
  return best;
}

bool Matrix::ApproxEquals(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  return MaxAbsDiff(other) <= tol;
}

bool Matrix::IsSymmetric(double tol) const {
  if (!IsSquare()) return false;
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = i + 1; j < cols_; ++j) {
      if (std::fabs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    }
  }
  return true;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  for (size_t i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[[" : " [");
    for (size_t j = 0; j < cols_; ++j) {
      if (j > 0) os << ", ";
      os << (*this)(i, j);
    }
    os << (i + 1 == rows_ ? "]]" : "]\n");
  }
  return os.str();
}

Matrix operator+(Matrix a, const Matrix& b) {
  a += b;
  return a;
}

Matrix operator-(Matrix a, const Matrix& b) {
  a -= b;
  return a;
}

Matrix operator*(Matrix a, double scalar) {
  a *= scalar;
  return a;
}

Matrix operator*(double scalar, Matrix a) {
  a *= scalar;
  return a;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  CROWD_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      double aik = a(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
  CROWD_CHECK_EQ(a.cols(), x.size());
  Vector y(a.rows(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) sum += a(i, j) * x[j];
    y[i] = sum;
  }
  return y;
}

double Dot(const Vector& a, const Vector& b) {
  CROWD_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double Norm(const Vector& a) { return std::sqrt(Dot(a, a)); }

double L1Norm(const Vector& a) {
  double sum = 0.0;
  for (double x : a) sum += std::fabs(x);
  return sum;
}

bool Normalize(Vector* v) {
  CROWD_CHECK(v != nullptr);
  return Normalize(v->data(), v->size());
}

bool Normalize(double* v, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += v[i] * v[i];
  const double norm = std::sqrt(sum);
  if (norm < 1e-300) return false;
  for (size_t i = 0; i < n; ++i) v[i] /= norm;
  return true;
}

}  // namespace crowd::linalg
