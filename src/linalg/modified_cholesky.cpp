#include "linalg/modified_cholesky.hpp"

#include <algorithm>
#include <cmath>

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
    //   (Z Zᵀ + ridge·(N−1)·I) beta = Z x_iᵀ, with Z the |pred|×N
    // predecessor rows.  The p×p system is SPD, so it goes to the band
    // Cholesky at full bandwidth p−1: lower triangle only, one dot per
    // entry, factor and single-RHS solve in place on the arena.
    const Index p = pred.size();
    auto gram_storage =
        arena.allocate_span<double>(BandMatrix::storage_size(p, p - 1));
    std::fill(gram_storage.begin(), gram_storage.end(), 0.0);
    BandMatrix gram(gram_storage, p, p - 1);
    Vector beta = Vector::scratch(arena.allocate_span<double>(p));
    for (Index a = 0; a < p; ++a) {
      const auto za = anomalies.row(pred[a]);
      for (Index c = 0; c <= a; ++c) {
        gram(a, c) = table.dot(ens, za.data(), anomalies.row(pred[c]).data());
      }
      gram(a, a) += ridge * denom;
      beta[a] = table.dot(ens, za.data(), xi.data());
    }
    band_cholesky_factor(gram);
    band_cholesky_solve_in_place(gram, beta);

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

void add_inverse_covariance(const ModifiedCholesky& factors,
                            std::span<const Index> band_index, BandMatrix& a) {
  const Index n = factors.dim();
  SENKF_REQUIRE(a.dim() == n, "add_inverse_covariance: dimension mismatch");
  SENKF_REQUIRE(factors.l.bandwidth(band_index) <= a.bandwidth(),
                "add_inverse_covariance: band narrower than L");
  for (Index i = 0; i < n; ++i) {
    const std::span<const Index> columns = factors.l.columns(i);
    const std::span<const double> values = factors.l.values(i);
    // ℓ_i = e_i + Σ_s values[s]·e_{columns[s]}, scaled outer product into
    // the lower band.  Which of a symmetric pair is added is decided in
    // L's order, so the map changes where a sum lands, never its terms.
    const double inv = 1.0 / factors.d[i];
    const Index bi = band_index[i];
    a(bi, bi) += inv;
    for (Index s = 0; s < columns.size(); ++s) {
      const double vs = inv * values[s];
      const Index bs = band_index[columns[s]];
      a.symmetric(bi, bs) += vs;
      for (Index t = 0; t < columns.size(); ++t) {
        if (columns[t] <= columns[s]) {
          a.symmetric(bs, band_index[columns[t]]) += vs * values[t];
        }
      }
    }
  }
}

}  // namespace senkf::linalg
