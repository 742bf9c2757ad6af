// Dense reconstructions of the compact modified-Cholesky factor, for
// tests only — the library never forms them.  dense_inverse_covariance
// is the dense B̂⁻¹ = Lᵀ D⁻¹ L formula the stochastic analysis solved
// with before it moved onto the band, kept as the oracle's arithmetic.
//
// Tests state their predecessor neighbourhoods as plain functions
// (PredecessorFn) and get an owning factor from estimate_inverse_covariance
// below, which runs the library's arena estimator and copies the result
// out of its arena.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "linalg/modified_cholesky.hpp"
#include "linalg/ops.hpp"
#include "support/arena.hpp"

namespace senkf::linalg::testing {

/// Given variable i, the indices j < i of its neighbourhood.
using PredecessorFn = std::function<std::vector<Index>(Index)>;

/// The up-to-`bandwidth` immediately preceding variables.
inline PredecessorFn banded_predecessors(Index bandwidth) {
  return [bandwidth](Index i) {
    std::vector<Index> pred;
    for (Index j = i > bandwidth ? i - bandwidth : 0; j < i; ++j) {
      pred.push_back(j);
    }
    return pred;
  };
}

/// The estimator on `predecessors`, deep-copied out of its arena.
inline ModifiedCholesky estimate_inverse_covariance(
    const Matrix& anomalies, const PredecessorFn& predecessors,
    double ridge = 1e-8) {
  class ListedOracle final : public PredecessorOracle {
   public:
    explicit ListedOracle(const PredecessorFn& fn) : fn_(fn) {}
    std::span<const Index> predecessors(Index i, support::Arena&) override {
      current_ = fn_(i);
      return current_;
    }

   private:
    const PredecessorFn& fn_;
    std::vector<Index> current_;
  };
  ListedOracle oracle(predecessors);
  support::Arena arena;
  const ModifiedCholesky scratch =
      estimate_inverse_covariance_scratch(anomalies, oracle, ridge, arena);
  ModifiedCholesky owned = scratch;
  return owned;
}

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
