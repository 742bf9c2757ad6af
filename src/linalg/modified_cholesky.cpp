#include "linalg/modified_cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/kernels/dispatch.hpp"

namespace senkf::linalg {

ModifiedCholesky estimate_inverse_covariance_scratch(
    const Matrix& anomalies, PredecessorOracle& predecessors, double ridge,
    support::Arena& arena) {
  SENKF_REQUIRE(anomalies.cols() >= 2,
                "modified Cholesky: need at least 2 ensemble members");
  SENKF_REQUIRE(ridge >= 0.0, "modified Cholesky: ridge must be >= 0");
  const Index n = anomalies.rows();
  const Index ens = anomalies.cols();
  const double denom = static_cast<double>(ens - 1);

  // Pass 1 sizes L: row i gets |pred(i)| entries.
  auto row_start = arena.allocate_span<Index>(n + 1);
  row_start[0] = 0;
  for (Index i = 0; i < n; ++i) {
    const support::Arena::Marker row_marker = arena.mark();
    row_start[i + 1] =
        row_start[i] + predecessors.predecessors(i, arena).size();
    arena.rewind(row_marker);
  }
  ModifiedCholesky out{SparseUnitLower::scratch(row_start, arena),
                       Vector::scratch(arena.allocate_span<double>(n))};

  // Pass 2 fills it.  The column sweeps are dots and axpys over
  // ensemble-sized rows, so they ride the dispatched SIMD kernels.
  const auto& table = kernels::active_kernels();
  const support::Arena::Marker outer = arena.mark();
  Vector fitted = Vector::scratch(arena.allocate_span<double>(ens));

  for (Index i = 0; i < n; ++i) {
    const support::Arena::Marker row_marker = arena.mark();
    const std::span<const Index> pred = predecessors.predecessors(i, arena);
    SENKF_REQUIRE(pred.size() == out.l.columns(i).size(),
                  "modified Cholesky: predecessor oracle is not repeatable");
    for (const Index j : pred) {
      SENKF_REQUIRE(j < i, "modified Cholesky: predecessor must precede i");
    }
    const auto xi = anomalies.row(i);

    if (pred.empty()) {
      const double var = table.dot(ens, xi.data(), xi.data());
      out.d[i] = std::max(var / denom, ridge + 1e-12);
      arena.rewind(row_marker);
      continue;
    }

    // Normal equations of the regression x_i ~ x_pred:
    //   (Z Zᵀ + ridge I) beta = Z x_iᵀ, with Z the |pred|×N predecessor rows.
    const Index p = pred.size();
    const Index pstride = Matrix::padded_stride(p);
    auto gram_storage = arena.allocate_span<double>(p * pstride);
    std::fill(gram_storage.begin(), gram_storage.end(), 0.0);
    Matrix gram = Matrix::scratch(gram_storage, p, p, pstride);
    auto lfac_storage = arena.allocate_span<double>(p * pstride);
    std::fill(lfac_storage.begin(), lfac_storage.end(), 0.0);
    Matrix lfac = Matrix::scratch(lfac_storage, p, p, pstride);
    Vector beta = Vector::scratch(arena.allocate_span<double>(p));
    for (Index a = 0; a < p; ++a) {
      const auto za = anomalies.row(pred[a]);
      for (Index b = a; b < p; ++b) {
        const auto zb = anomalies.row(pred[b]);
        const double sum = table.dot(ens, za.data(), zb.data());
        gram(a, b) = sum;
        gram(b, a) = sum;
      }
      gram(a, a) += ridge * denom;
      beta[a] = table.dot(ens, za.data(), xi.data());
    }
    // Factor + in-place solve: the same kernel sequence CholeskyFactor /
    // its solve() run, minus their allocations.
    cholesky_factor_into(gram, lfac);
    cholesky_solve_in_place(lfac, beta);

    // Residual variance and the negated coefficients into row i of L:
    // fitted = Σ_a beta_a · z_a accumulated by axpy, rss = ‖x_i − fitted‖².
    std::fill(fitted.begin(), fitted.end(), 0.0);
    for (Index a = 0; a < p; ++a) {
      table.axpy(ens, beta[a], anomalies.row(pred[a]).data(), fitted.data());
    }
    table.axpy(ens, -1.0, xi.data(), fitted.data());
    const double rss = table.dot(ens, fitted.data(), fitted.data());
    out.d[i] = std::max(rss / denom, ridge + 1e-12);
    const auto columns = out.l.columns(i);
    const auto values = out.l.values(i);
    for (Index a = 0; a < p; ++a) {
      columns[a] = pred[a];
      values[a] = -beta[a];
    }
    arena.rewind(row_marker);
  }
  arena.rewind(outer);
  return out;
}

void add_inverse_covariance(const ModifiedCholesky& factors, BandMatrix& a) {
  const Index n = factors.dim();
  SENKF_REQUIRE(a.dim() == n, "add_inverse_covariance: dimension mismatch");
  SENKF_REQUIRE(factors.l.bandwidth() <= a.bandwidth(),
                "add_inverse_covariance: band narrower than L");
  for (Index i = 0; i < n; ++i) {
    const std::span<const Index> columns = factors.l.columns(i);
    const std::span<const double> values = factors.l.values(i);
    // ℓ_i = e_i + Σ_s values[s]·e_{columns[s]}, scaled outer product into
    // the lower band.
    const double inv = 1.0 / factors.d[i];
    a(i, i) += inv;
    for (Index s = 0; s < columns.size(); ++s) {
      const double vs = inv * values[s];
      a(i, columns[s]) += vs;
      for (Index t = 0; t < columns.size(); ++t) {
        if (columns[t] <= columns[s]) {
          a(columns[s], columns[t]) += vs * values[t];
        }
      }
    }
  }
}

}  // namespace senkf::linalg
