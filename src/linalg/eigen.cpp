#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/ops.hpp"

namespace senkf::linalg {

SymmetricEigen symmetric_eigen(const Matrix& a, double symmetry_tol) {
  const Index n = a.rows();
  SymmetricEigen out{Vector(n), Matrix(n, n)};
  Matrix work_d(n, n);
  Matrix work_v(n, n);
  std::vector<Index> order(n);
  symmetric_eigen_into(a, out.values, out.vectors, work_d, work_v, order,
                       symmetry_tol);
  return out;
}

void symmetric_eigen_into(const Matrix& a, Vector& values, Matrix& vectors,
                          Matrix& work_d, Matrix& work_v,
                          std::span<Index> order, double symmetry_tol) {
  SENKF_REQUIRE(a.square(), "symmetric_eigen: matrix must be square");
  SENKF_REQUIRE(is_symmetric(a, symmetry_tol),
                "symmetric_eigen: matrix must be symmetric");
  const Index n = a.rows();
  SENKF_REQUIRE(values.size() == n && vectors.rows() == n &&
                    vectors.cols() == n && work_d.rows() == n &&
                    work_d.cols() == n && work_v.rows() == n &&
                    work_v.cols() == n && order.size() >= n,
                "symmetric_eigen_into: scratch shape mismatch");

  if (n == 0) return;
  if (n == 1) {
    values[0] = a(0, 0);
    vectors(0, 0) = 1.0;
    work_d(0, 0) = a(0, 0);
    work_v(0, 0) = 1.0;
    order[0] = 0;
    return;
  }

  // Householder tridiagonalization followed by implicit-shift QL (the
  // classic tred2/tql2 pair): O(n³) with a far smaller constant than
  // Jacobi sweeps at ensemble sizes.  `z` starts as a copy of A and
  // finishes with the eigenvectors in its columns; the tridiagonal
  // diagonal/subdiagonal live in two rows of the work matrix.
  Matrix& z = work_v;
  z.assign_values(a);
  double* const d = work_d.data();                    // diagonal
  double* const e = work_d.data() + work_d.stride();  // subdiagonal

  // --- tred2: reduce z to tridiagonal form, accumulating transforms ---
  for (Index i = n - 1; i >= 1; --i) {
    const Index l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (Index k = 0; k <= l; ++k) scale += std::abs(z(i, k));
      if (scale == 0.0) {
        e[i] = z(i, l);
      } else {
        for (Index k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (Index j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0.0;
          for (Index k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (Index k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        const double hh = f / (h + h);
        for (Index j = 0; j <= l; ++j) {
          f = z(i, j);
          const double ej = e[j] - hh * f;
          e[j] = ej;
          for (Index k = 0; k <= j; ++k) {
            z(j, k) -= f * e[k] + ej * z(i, k);
          }
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (Index i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      for (Index j = 0; j < i; ++j) {
        double g = 0.0;
        for (Index k = 0; k < i; ++k) g += z(i, k) * z(k, j);
        for (Index k = 0; k < i; ++k) z(k, j) -= g * z(k, i);
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (Index j = 0; j < i; ++j) {
      z(j, i) = 0.0;
      z(i, j) = 0.0;
    }
  }

  // --- tql2: implicit-shift QL on the tridiagonal, rotating z along ---
  const auto pythag = [](double x, double y) {
    const double ax = std::abs(x);
    const double ay = std::abs(y);
    if (ax > ay) {
      const double r = ay / ax;
      return ax * std::sqrt(1.0 + r * r);
    }
    if (ay == 0.0) return 0.0;
    const double r = ax / ay;
    return ay * std::sqrt(1.0 + r * r);
  };

  for (Index i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (Index l = 0; l < n; ++l) {
    int iter = 0;
    Index m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) + dd == dd) break;
      }
      if (m != l) {
        if (iter++ == 50) {
          throw NumericError("symmetric_eigen: QL iterations did not converge");
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = pythag(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (Index i = m; i-- > l;) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = pythag(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (Index k = 0; k < n; ++k) {
            const double zf = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * zf;
            z(k, i) = c * z(k, i) - s * zf;
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }

  // Sort ascending by eigenvalue.
  std::iota(order.begin(), order.begin() + n, Index{0});
  std::sort(order.begin(), order.begin() + n,
            [&](Index x, Index y) { return d[x] < d[y]; });

  for (Index j = 0; j < n; ++j) {
    values[j] = d[order[j]];
    for (Index i = 0; i < n; ++i) vectors(i, j) = z(i, order[j]);
  }
}

}  // namespace senkf::linalg
