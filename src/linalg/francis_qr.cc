#include "linalg/francis_qr.h"

#include <cmath>

#include "linalg/hessenberg.h"
#include "util/string_util.h"

namespace crowd::linalg {

namespace {

inline double SignLike(double magnitude, double sign_source) {
  return sign_source >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
}

}  // namespace

// The structure of this routine follows the classical `hqr` algorithm
// (Wilkinson & Reinsch; Press et al.), rewritten with 0-based indexing.
// `h` is consumed/destroyed.
Result<std::vector<std::complex<double>>> HessenbergEigenvalues(
    Matrix h, int max_iterations) {
  if (!h.IsSquare()) {
    return Status::Invalid("HessenbergEigenvalues requires a square matrix");
  }
  const int n = static_cast<int>(h.rows());
  if (n == 0) return std::vector<std::complex<double>>{};

  std::vector<std::complex<double>> eigenvalues(n);

  // Overall matrix norm used in the deflation criteria.
  double anorm = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = std::max(i - 1, 0); j < n; ++j) {
      anorm += std::fabs(h(i, j));
    }
  }
  if (anorm == 0.0) {
    // The zero matrix: all eigenvalues zero.
    return eigenvalues;
  }

  int nn = n - 1;  // Index of the active trailing eigenvalue.
  double t = 0.0;  // Accumulated exceptional shifts.
  const double eps = 1e-14;

  while (nn >= 0) {
    int its = 0;
    int l;
    do {
      // Look for a single small subdiagonal element to split the matrix.
      for (l = nn; l >= 1; --l) {
        double s = std::fabs(h(l - 1, l - 1)) + std::fabs(h(l, l));
        if (s == 0.0) s = anorm;
        if (std::fabs(h(l, l - 1)) <= eps * s) {
          h(l, l - 1) = 0.0;
          break;
        }
      }
      double x = h(nn, nn);
      if (l == nn) {
        // One real eigenvalue found.
        eigenvalues[nn] = std::complex<double>(x + t, 0.0);
        --nn;
      } else {
        double y = h(nn - 1, nn - 1);
        double w = h(nn, nn - 1) * h(nn - 1, nn);
        if (l == nn - 1) {
          // A 2x2 block: two eigenvalues, real or conjugate pair.
          double p = 0.5 * (y - x);
          double q = p * p + w;
          double z = std::sqrt(std::fabs(q));
          x += t;
          if (q >= 0.0) {
            z = p + SignLike(z, p);
            eigenvalues[nn - 1] = eigenvalues[nn] =
                std::complex<double>(x + z, 0.0);
            if (z != 0.0) {
              eigenvalues[nn] = std::complex<double>(x - w / z, 0.0);
            }
          } else {
            eigenvalues[nn] = std::complex<double>(x + p, z);
            eigenvalues[nn - 1] = std::conj(eigenvalues[nn]);
          }
          nn -= 2;
        } else {
          // No convergence yet; do a QR step.
          if (its == max_iterations) {
            return Status::NumericalError(StrFormat(
                "Francis QR: eigenvalue %d did not converge in %d "
                "iterations",
                nn, max_iterations));
          }
          double p = 0.0, q = 0.0, z = 0.0, r = 0.0, s = 0.0;
          if (its == 10 || its == 20) {
            // Exceptional shift to break symmetric stalls.
            t += x;
            for (int i = 0; i <= nn; ++i) h(i, i) -= x;
            s = std::fabs(h(nn, nn - 1)) + std::fabs(h(nn - 1, nn - 2));
            y = x = 0.75 * s;
            w = -0.4375 * s * s;
          }
          ++its;
          // Form the first column of (H - a I)(H - b I) implicitly and
          // look for two consecutive small subdiagonals.
          int m;
          for (m = nn - 2; m >= l; --m) {
            z = h(m, m);
            r = x - z;
            s = y - z;
            p = (r * s - w) / h(m + 1, m) + h(m, m + 1);
            q = h(m + 1, m + 1) - z - r - s;
            r = h(m + 2, m + 1);
            s = std::fabs(p) + std::fabs(q) + std::fabs(r);
            p /= s;
            q /= s;
            r /= s;
            if (m == l) break;
            double u =
                std::fabs(h(m, m - 1)) * (std::fabs(q) + std::fabs(r));
            double v = std::fabs(p) * (std::fabs(h(m - 1, m - 1)) +
                                       std::fabs(z) +
                                       std::fabs(h(m + 1, m + 1)));
            if (u <= eps * v) break;
          }
          for (int i = m + 2; i <= nn; ++i) {
            h(i, i - 2) = 0.0;
            if (i > m + 2) h(i, i - 3) = 0.0;
          }
          // The double QR sweep over rows/columns l..nn.
          for (int k = m; k <= nn - 1; ++k) {
            if (k != m) {
              p = h(k, k - 1);
              q = h(k + 1, k - 1);
              r = (k + 2 <= nn) ? h(k + 2, k - 1) : 0.0;
              x = std::fabs(p) + std::fabs(q) + std::fabs(r);
              if (x != 0.0) {
                p /= x;
                q /= x;
                r /= x;
              }
            }
            s = SignLike(std::sqrt(p * p + q * q + r * r), p);
            if (s == 0.0) continue;
            if (k == m) {
              if (l != m) h(k, k - 1) = -h(k, k - 1);
            } else {
              h(k, k - 1) = -s * x;
            }
            p += s;
            x = p / s;
            y = q / s;
            z = r / s;
            q /= p;
            r /= p;
            // Row modification.
            for (int j = k; j <= nn; ++j) {
              p = h(k, j) + q * h(k + 1, j);
              if (k + 2 <= nn) {
                p += r * h(k + 2, j);
                h(k + 2, j) -= p * z;
              }
              h(k + 1, j) -= p * y;
              h(k, j) -= p * x;
            }
            int mmin = (nn < k + 3) ? nn : k + 3;
            // Column modification.
            for (int i = l; i <= mmin; ++i) {
              p = x * h(i, k) + y * h(i, k + 1);
              if (k + 2 <= nn) {
                p += z * h(i, k + 2);
                h(i, k + 2) -= p * r;
              }
              h(i, k + 1) -= p * q;
              h(i, k) -= p;
            }
          }
        }
      }
    } while (nn >= 0 && l < nn - 1);
  }
  return eigenvalues;
}

Result<std::vector<std::complex<double>>> GeneralEigenvalues(
    const Matrix& a) {
  CROWD_ASSIGN_OR_RETURN(Matrix h, ReduceToHessenberg(a));
  return HessenbergEigenvalues(std::move(h));
}

}  // namespace crowd::linalg
