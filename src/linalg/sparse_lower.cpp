#include "linalg/sparse_lower.hpp"

#include <algorithm>
#include <utility>

namespace senkf::linalg {

SparseUnitLower SparseUnitLower::scratch(std::span<Index> row_start,
                                         support::Arena& arena) {
  SENKF_REQUIRE(!row_start.empty(),
                "SparseUnitLower::scratch: need n+1 row offsets");
  SparseUnitLower out;
  out.row_start_ = row_start;
  out.columns_ = arena.allocate_span<Index>(row_start.back());
  out.values_ = arena.allocate_span<double>(row_start.back());
  return out;
}

SparseUnitLower::SparseUnitLower(const SparseUnitLower& other) {
  // One index buffer holds the offsets followed by the columns.
  owned_index_.assign(other.row_start_.begin(), other.row_start_.end());
  owned_index_.insert(owned_index_.end(), other.columns_.begin(),
                      other.columns_.end());
  owned_values_.assign(other.values_.begin(), other.values_.end());
  row_start_ = std::span(owned_index_).first(other.row_start_.size());
  columns_ = std::span(owned_index_).subspan(other.row_start_.size());
  values_ = owned_values_;
}

SparseUnitLower& SparseUnitLower::operator=(const SparseUnitLower& other) {
  if (this != &other) *this = SparseUnitLower(other);
  return *this;
}

SparseUnitLower::SparseUnitLower(SparseUnitLower&& other) noexcept {
  *this = std::move(other);
}

SparseUnitLower& SparseUnitLower::operator=(SparseUnitLower&& other) noexcept {
  if (this == &other) return *this;
  row_start_ = std::exchange(other.row_start_, {});
  columns_ = std::exchange(other.columns_, {});
  values_ = std::exchange(other.values_, {});
  owned_index_ = std::move(other.owned_index_);
  owned_values_ = std::move(other.owned_values_);
  return *this;
}

Index SparseUnitLower::bandwidth(std::span<const Index> band_index) const {
  SENKF_REQUIRE(band_index.size() == dim(),
                "SparseUnitLower::bandwidth: one band row per point");
  Index band = 0;
  for (Index i = 0; i < dim(); ++i) {
    Index lo = band_index[i];
    Index hi = lo;
    for (const Index j : columns(i)) {
      lo = std::min(lo, band_index[j]);
      hi = std::max(hi, band_index[j]);
    }
    band = std::max(band, hi - lo);
  }
  return band;
}

}  // namespace senkf::linalg
