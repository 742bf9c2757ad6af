#include "linalg/solve.hpp"

#include <cmath>
#include <numeric>

namespace senkf::linalg {

LuFactor::LuFactor(const Matrix& a) : lu_(a) {
  SENKF_REQUIRE(a.square(), "LU: matrix must be square");
  const Index n = lu_.rows();
  pivot_.resize(n);
  std::iota(pivot_.begin(), pivot_.end(), Index{0});

  for (Index k = 0; k < n; ++k) {
    // Partial pivoting: bring the largest |entry| of column k to the top.
    Index best = k;
    double best_abs = std::abs(lu_(k, k));
    for (Index i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best_abs) {
        best_abs = v;
        best = i;
      }
    }
    if (best_abs < 1e-300) throw NumericError("LU: matrix is singular");
    if (best != k) {
      for (Index j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(best, j));
      std::swap(pivot_[k], pivot_[best]);
    }
    const double pivot = lu_(k, k);
    for (Index i = k + 1; i < n; ++i) {
      const double factor = lu_(i, k) / pivot;
      lu_(i, k) = factor;
      for (Index j = k + 1; j < n; ++j) lu_(i, j) -= factor * lu_(k, j);
    }
  }
}

Vector LuFactor::solve(const Vector& b) const {
  SENKF_REQUIRE(b.size() == dim(), "LU::solve: length mismatch");
  const Index n = dim();
  Vector x(n);
  // Apply permutation, then forward substitution with unit-lower L.
  for (Index i = 0; i < n; ++i) {
    double sum = b[pivot_[i]];
    for (Index k = 0; k < i; ++k) sum -= lu_(i, k) * x[k];
    x[i] = sum;
  }
  // Backward substitution with U.
  for (Index ip = n; ip-- > 0;) {
    double sum = x[ip];
    for (Index k = ip + 1; k < n; ++k) sum -= lu_(ip, k) * x[k];
    x[ip] = sum / lu_(ip, ip);
  }
  return x;
}

Matrix LuFactor::solve(const Matrix& b) const {
  SENKF_REQUIRE(b.rows() == dim(), "LU::solve: row mismatch");
  Matrix x(b.rows(), b.cols());
  for (Index j = 0; j < b.cols(); ++j) x.set_column(j, solve(b.column(j)));
  return x;
}

Matrix inverse(const Matrix& a) {
  return LuFactor(a).solve(Matrix::identity(a.rows()));
}

}  // namespace senkf::linalg
