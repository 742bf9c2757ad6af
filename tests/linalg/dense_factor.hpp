// Dense reconstructions of the compact modified-Cholesky factor, for
// tests only — the library never forms them.  dense_inverse_covariance
// is the dense B̂⁻¹ = Lᵀ D⁻¹ L formula the stochastic analysis solved
// with before it moved onto the band, kept as the oracle's arithmetic.
#pragma once

#include "linalg/modified_cholesky.hpp"
#include "linalg/ops.hpp"

namespace senkf::linalg::testing {

inline Matrix dense_l(const SparseUnitLower& l) {
  Matrix out = Matrix::identity(l.dim());
  for (Index i = 0; i < l.dim(); ++i) {
    const auto columns = l.columns(i);
    const auto values = l.values(i);
    for (Index s = 0; s < columns.size(); ++s) out(i, columns[s]) = values[s];
  }
  return out;
}

inline Matrix dense_inverse_covariance(const ModifiedCholesky& factors) {
  const Index n = factors.dim();
  const Matrix l = dense_l(factors.l);
  // Form D⁻¹L once, then multiply by Lᵀ.
  Matrix dinv_l = l;
  for (Index i = 0; i < n; ++i) {
    const double inv = 1.0 / factors.d[i];
    for (Index j = 0; j <= i; ++j) dinv_l(i, j) *= inv;
  }
  return multiply_at_b(l, dinv_l);
}

}  // namespace senkf::linalg::testing
