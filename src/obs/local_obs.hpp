// Localization of observations to an expansion rectangle (paper eq. (6)).
//
// For a sub-domain (or layer) expansion D̄, the local pieces are:
//   * the indices of the observed components entirely supported by D̄,
//   * H_{[i,j]} — an m̄×n̄ operator acting on the expansion patch
//     (row-major patch-local indexing), held only row-sparse: each row
//     keeps its 1–4 support points.  Both analysis kinds apply H, Hᵀ
//     and (stochastic) add HᵀR⁻¹H on the band through it, at O(s) per
//     row and column for supports of s points; the band may number the
//     points differently, through a band-index map,
//   * the diagonal of R_{[i,j]} and its reciprocals,
//   * the corresponding rows of the global Yˢ.
// Nothing here is m̄×n̄ or n̄×n̄.
#pragma once

#include <span>
#include <vector>

#include "linalg/banded.hpp"
#include "linalg/matrix.hpp"
#include "obs/observation.hpp"

namespace senkf::obs {

class LocalObservations {
 public:
  /// Selects the components of `observations` supported by `rect`.
  LocalObservations(const ObservationSet& observations, grid::Rect rect);

  grid::Rect rect() const { return rect_; }
  Index size() const { return selected_.size(); }
  bool empty() const { return selected_.empty(); }

  /// Global indices of the selected components (ascending).
  const std::vector<Index>& selected() const { return selected_; }

  /// Diagonal of the local R (variances, length size()).
  const linalg::Vector& r_diagonal() const { return r_diag_; }

  /// Element-wise reciprocals of r_diagonal() — the diagonal of R⁻¹,
  /// precomputed so the analysis never re-derives it per patch.
  const linalg::Vector& r_inverse() const { return rinv_; }

  /// Support of row r of H̄: the expansion-local indices of its non-zero
  /// weights (ascending) and the weights.
  std::span<const Index> h_columns(Index r) const {
    return std::span(h_columns_).subspan(h_start_[r],
                                         h_start_[r + 1] - h_start_[r]);
  }
  std::span<const double> h_weights(Index r) const {
    return std::span(h_weights_).subspan(h_start_[r],
                                         h_start_[r + 1] - h_start_[r]);
  }

  /// How far HᵀR⁻¹H reaches from the diagonal when point i sits on band
  /// row band_index[i]: the widest spread of band rows over one row's
  /// support.  `band_index` holds rect().count() entries.
  Index h_bandwidth(std::span<const Index> band_index) const;

  /// out = H̄·x for x with rect().count() rows (out: size() rows, same
  /// columns), through the row supports.
  void apply_h_into(const linalg::Matrix& x, linalg::Matrix& out) const;

  /// out = H̄·x for a vector x of length rect().count() (out: size()).
  void apply_h_into(const linalg::Vector& x, linalg::Vector& out) const;

  /// out = P H̄ᵀ·d for d with size() rows (out: rect().count() rows), P
  /// putting point i's row on out's row band_index[i].  Each row gets the
  /// same additions in the same order whatever the map.
  void apply_ht_into(const linalg::Matrix& d,
                     std::span<const Index> band_index,
                     linalg::Matrix& out) const;

  /// a += P H̄ᵀR⁻¹H̄ Pᵀ on the band, P putting point i on band row
  /// band_index[i] (a.bandwidth() >= h_bandwidth(band_index)).  Every
  /// entry gets the same additions in the same order whatever the map.
  void add_ht_rinv_h(std::span<const Index> band_index,
                     linalg::BandMatrix& a) const;

  /// The measured values of the selected components (length size()).
  const linalg::Vector& local_values() const { return local_values_; }

  /// Extracts the selected rows of a global m×N matrix (e.g. Yˢ).
  linalg::Matrix select_rows(const linalg::Matrix& global) const;

  /// Allocation-free select_rows into a pre-shaped size()×N matrix.
  void select_rows_into(const linalg::Matrix& global,
                        linalg::Matrix& out) const;

 private:
  grid::Rect rect_;
  std::vector<Index> selected_;
  linalg::Vector r_diag_;
  linalg::Vector rinv_;
  std::vector<Index> h_start_;  // size()+1 offsets into the two below
  std::vector<Index> h_columns_;
  std::vector<double> h_weights_;
  linalg::Vector local_values_;
};

}  // namespace senkf::obs
