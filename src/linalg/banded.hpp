// Symmetric positive-definite band solver — the library's one Cholesky.
//
// Its main client is the system solve of the stochastic analysis (paper
// eq. (6)).  A = B̂⁻¹ + HᵀR⁻¹H couples two points only when one is a
// localized predecessor of the other (an entry of L, B̂⁻¹ = LᵀD⁻¹L) or
// when both lie in one observation's support, so under any numbering of
// the expansion's points A(i, j) = 0 for |i − j| > b, with b the widest
// index spread over one row of L with its point or over one support.
// The analysis numbers the band along the expansion's short axis, which
// keeps b small (enkf/local_analysis.hpp).  The small dense SPD systems —
// the modified-Cholesky estimator's p×p regressions and the m×m χ² solve
// of innovation_statistics — are the same solver at full bandwidth
// b = n−1.
//
// BandMatrix stores only the lower band: row i holds A(i, i−b .. i)
// contiguously with the diagonal last; the slots left of column 0 in the
// first b rows stay zero.  Factoring in place (the table's `pbtrf`
// kernel) costs ≈ n·b² flops and the N-column solve ≈ 4·n·b·N, against
// ≈ n³/3 + 2·n²·N for a dense Cholesky on the same system.  Every inner
// loop is a contiguous dot or axpy from the dispatched KernelTable, so
// the band path needs no per-ISA code of its own.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace senkf::linalg {

/// Non-owning symmetric band matrix in lower-band storage over caller
/// storage (an arena span in the analysis, a vector elsewhere).
class BandMatrix {
 public:
  /// Doubles of storage an n×n matrix of half-bandwidth `bandwidth` needs.
  static Index storage_size(Index n, Index bandwidth) {
    return n * (bandwidth + 1);
  }

  /// `storage` holds storage_size(n, bandwidth) doubles and arrives
  /// zero-filled (the matrix is then all zero); bandwidth < n unless
  /// n == 0.
  BandMatrix(std::span<double> storage, Index n, Index bandwidth);

  Index dim() const { return n_; }
  Index bandwidth() const { return band_; }

  /// The lower-band storage, row i at data()[i·(bandwidth()+1)].
  double* data() { return data_; }

  /// Lower-band entry A(i, j): j <= i and i − j <= bandwidth().
  double& operator()(Index i, Index j) {
    SENKF_ASSERT(j <= i && i - j <= band_ && i < n_);
    return data_[i * (band_ + 1) + band_ - (i - j)];
  }
  const double& operator()(Index i, Index j) const {
    SENKF_ASSERT(j <= i && i - j <= band_ && i < n_);
    return data_[i * (band_ + 1) + band_ - (i - j)];
  }

  /// The stored entry of A(i, j) = A(j, i), for either order of i and j.
  double& symmetric(Index i, Index j) {
    return i >= j ? (*this)(i, j) : (*this)(j, i);
  }

 private:
  double* data_;
  Index n_;
  Index band_;
};

/// Overwrites the band of SPD `a` with its lower Cholesky factor L
/// (A = L·Lᵀ, same band).  Throws NumericError naming the first pivot
/// that is not positive.
void band_cholesky_factor(BandMatrix& a);

/// Overwrites `x` (holding B, n rows) with A⁻¹B, given the factor from
/// band_cholesky_factor: forward L·Y = B, then back Lᵀ·X = Y.
void band_cholesky_solve_in_place(const BandMatrix& l, Matrix& x);

/// Single right-hand side: overwrites `x` (holding b, length n) with
/// A⁻¹b — one dot per row forward, one axpy per row back.
void band_cholesky_solve_in_place(const BandMatrix& l, Vector& x);

}  // namespace senkf::linalg
