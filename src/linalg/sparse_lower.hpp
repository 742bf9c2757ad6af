// Compact storage for the modified-Cholesky factor L.
//
// Localization leaves row i of L with non-zeros only at its predecessors
// — about η(2ξ+1)+ξ of them for a (ξ, η) window — so an n×n dense L
// wastes O(n²) memory; the paper notes that "compact representation of
// matrices can be used ... to exploit the structures of B̂⁻¹" (§2.3).
// SparseUnitLower is L's only storage: the unit diagonal is implicit and
// row i's strictly-lower entries sit at columns(i) with values(i).  The
// estimator writes it (modified_cholesky.hpp) and the stochastic
// analysis assembles B̂⁻¹ = LᵀD⁻¹L from it straight into band storage
// (banded.hpp), so L is never densified.  L keeps the row-major indices
// of the estimator's ordering; only the band it is assembled into may be
// renumbered, through a band-index map.
//
// Storage follows Matrix's two modes: `scratch(...)` lays the factor out
// in an arena (the zero-allocation analysis path), and a copy is always
// an owning deep copy (the allocating estimator returns one).
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "support/arena.hpp"

namespace senkf::linalg {

class SparseUnitLower {
 public:
  SparseUnitLower() = default;

  /// Lays out a factor over `row_start` — n+1 ascending offsets (row i
  /// owns entries [row_start[i], row_start[i+1])), already in `arena`
  /// storage — and draws the column/value storage for its
  /// row_start.back() entries from `arena`.  Entries are uninitialized;
  /// everything is valid until the arena rewinds past this call.
  static SparseUnitLower scratch(std::span<Index> row_start,
                                 support::Arena& arena);

  /// Owning deep copy (whatever mode `other` is in).
  SparseUnitLower(const SparseUnitLower& other);
  SparseUnitLower& operator=(const SparseUnitLower& other);
  /// Moves carry the storage (owned buffers keep their addresses) and
  /// leave `other` empty, never viewing storage it no longer owns.
  SparseUnitLower(SparseUnitLower&& other) noexcept;
  SparseUnitLower& operator=(SparseUnitLower&& other) noexcept;

  Index dim() const { return row_start_.empty() ? 0 : row_start_.size() - 1; }

  /// Strictly-lower entries stored.
  Index nonzeros() const { return values_.size(); }

  /// Column indices / values of row i's strictly-lower entries.
  std::span<const Index> columns(Index i) const { return row_of(columns_, i); }
  std::span<const double> values(Index i) const { return row_of(values_, i); }
  std::span<Index> columns(Index i) { return row_of(columns_, i); }
  std::span<double> values(Index i) { return row_of(values_, i); }

  /// Half-bandwidth of LᵀD⁻¹L (and of L) when point i sits on band row
  /// band_index[i]: the widest spread of band rows over one row of L with
  /// its diagonal, since ℓᵢℓᵢᵀ couples every pair of them.  Under the
  /// identity map it is the largest i − j over stored entries (0 when L
  /// is the identity).  `band_index` holds dim() entries.
  Index bandwidth(std::span<const Index> band_index) const;

 private:
  template <typename T>
  std::span<T> row_of(std::span<T> all, Index i) const {
    return all.subspan(row_start_[i], row_start_[i + 1] - row_start_[i]);
  }

  std::span<Index> row_start_;
  std::span<Index> columns_;
  std::span<double> values_;
  // Backing storage of an owning factor (empty for scratch ones).
  std::vector<Index> owned_index_;
  std::vector<double> owned_values_;
};

}  // namespace senkf::linalg
