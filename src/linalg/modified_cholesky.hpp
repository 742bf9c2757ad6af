// Modified-Cholesky estimation of the inverse background-error covariance.
//
// P-EnKF (Nino-Ruiz, Sandu & Deng 2017/2018, cited as [23][24] in the
// paper) replaces the rank-deficient ensemble covariance B = UUᵀ/(N−1)
// with a well-conditioned sparse estimate of B̂⁻¹ built from the modified
// Cholesky decomposition of Bickel & Levina:
//
//   B̂⁻¹ = Lᵀ D⁻¹ L,
//
// where L is unit lower-triangular whose row i holds the negated
// coefficients of the regression of variable i onto its *localized
// predecessors* (variables earlier in the ordering and within the radius
// of influence), and D is the diagonal of residual variances.  Sparsity of
// L comes from localization: row i only has entries in columns pred(i),
// and L is stored that way (sparse_lower.hpp).  B̂⁻¹ itself is never
// formed densely: add_inverse_covariance accumulates it into band storage
// (banded.hpp) for the analysis solve.  The regressions define B̂⁻¹ in
// the predecessor ordering, so L keeps its row-major indices; only the
// band is renumbered, by the map add_inverse_covariance takes.
#pragma once

#include <span>

#include "linalg/banded.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse_lower.hpp"
#include "support/arena.hpp"

namespace senkf::linalg {

/// Result of the modified Cholesky estimation.
struct ModifiedCholesky {
  SparseUnitLower l;  ///< unit lower-triangular regression factor
  Vector d;           ///< residual variances (diagonal of D)

  Index dim() const { return d.size(); }
};

/// Predecessor oracle: given variable i, returns the indices j < i within
/// the localization neighbourhood of i (any order, no duplicates).
/// Implementations may place the returned span in `scratch` (it stays
/// valid until the caller rewinds) or point at storage they own.  Asking
/// twice for the same i must give the same set.
class PredecessorOracle {
 public:
  virtual ~PredecessorOracle() = default;
  virtual std::span<const Index> predecessors(Index i,
                                              support::Arena& scratch) = 0;
};

/// Estimates B̂⁻¹ from ensemble anomalies.
///
/// `anomalies` is the n×N matrix U of mean-subtracted ensemble members
/// (one row per model variable, one column per member).  `predecessors`
/// encodes localization.  `ridge` regularizes each small regression's
/// normal equations, which keeps the estimate well-defined even when the
/// neighbourhood is larger than the ensemble size (the situation that
/// motivates the method).
///
/// Each row's regression solves its p×p normal equations (p = |pred(i)|)
/// with the band Cholesky of banded.hpp at full bandwidth p−1, factored
/// in place.  A row whose system is not positive definite — e.g.
/// linearly dependent predecessor rows with ridge 0 — throws
/// NumericError.
///
/// Allocation-free: the factor's storage (L's rows and d) is drawn from
/// `arena` and lives until the caller rewinds past this call; the
/// per-row temporaries (the p×p system in band storage and the
/// coefficients) are released before return.  Copying the result
/// deep-copies it out of the arena.
ModifiedCholesky estimate_inverse_covariance_scratch(
    const Matrix& anomalies, PredecessorOracle& predecessors, double ridge,
    support::Arena& arena);

/// a += P B̂⁻¹ Pᵀ with B̂⁻¹ = Lᵀ D⁻¹ L = Σ_i d_i⁻¹ ℓ_i ℓ_iᵀ, ℓ_i row i of L
/// (unit diagonal included), and P the permutation that puts point i on
/// band row band_index[i] — O(Σ_i |pred(i)|²), no dense intermediate.
/// Each entry receives the same additions in the same order whatever the
/// map, so the identity map gives B̂⁻¹ in L's own order and any other map
/// its exact renumbering.  The band must reach every entry:
/// a.bandwidth() >= factors.l.bandwidth(band_index).
void add_inverse_covariance(const ModifiedCholesky& factors,
                            std::span<const Index> band_index, BandMatrix& a);

}  // namespace senkf::linalg
