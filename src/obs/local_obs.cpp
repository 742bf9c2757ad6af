#include "obs/local_obs.hpp"

#include <algorithm>
#include <utility>

#include "linalg/kernels/dispatch.hpp"

namespace senkf::obs {

LocalObservations::LocalObservations(const ObservationSet& observations,
                                     grid::Rect rect)
    : rect_(rect) {
  const auto& comps = observations.components();
  for (Index i = 0; i < comps.size(); ++i) {
    if (comps[i].supported_by(rect)) selected_.push_back(i);
  }

  const Index m = selected_.size();
  r_diag_ = linalg::Vector(m);
  rinv_ = linalg::Vector(m);
  local_values_ = linalg::Vector(m);
  h_start_.reserve(m + 1);
  h_start_.push_back(0);

  // Patch-local row-major indexing must match grid::Patch::local_index.
  const Index width = rect.x.size();
  std::vector<std::pair<Index, double>> points;  // (local index, weight)
  for (Index row = 0; row < m; ++row) {
    const ObsComponent& comp = comps[selected_[row]];
    points.clear();
    for (const auto& sp : comp.support) {
      points.emplace_back((sp.point.y - rect.y.begin) * width +
                              (sp.point.x - rect.x.begin),
                          sp.weight);
    }
    // Support points ascending; a repeated point's weights summed in
    // input order (the stable sort keeps it), zero sums dropped.
    std::stable_sort(points.begin(), points.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (Index s = 0; s < points.size();) {
      const Index j = points[s].first;
      double weight = 0.0;
      for (; s < points.size() && points[s].first == j; ++s) {
        weight += points[s].second;
      }
      if (weight == 0.0) continue;
      h_columns_.push_back(j);
      h_weights_.push_back(weight);
    }
    h_start_.push_back(h_columns_.size());
    r_diag_[row] = comp.error_std * comp.error_std;
    rinv_[row] = 1.0 / r_diag_[row];
    local_values_[row] = observations.values()[selected_[row]];
  }
}

void LocalObservations::apply_h_into(const linalg::Matrix& x,
                                     linalg::Matrix& out) const {
  SENKF_REQUIRE(x.rows() == rect_.count() && out.rows() == size() &&
                    out.cols() == x.cols(),
                "LocalObservations::apply_h_into: shape mismatch");
  const auto& table = linalg::kernels::active_kernels();
  for (Index r = 0; r < size(); ++r) {
    auto dst = out.row(r);
    std::fill(dst.begin(), dst.end(), 0.0);
    const auto columns = h_columns(r);
    const auto weights = h_weights(r);
    for (Index s = 0; s < columns.size(); ++s) {
      table.axpy(x.cols(), weights[s], x.row(columns[s]).data(), dst.data());
    }
  }
}

void LocalObservations::apply_h_into(const linalg::Vector& x,
                                     linalg::Vector& out) const {
  SENKF_REQUIRE(x.size() == rect_.count() && out.size() == size(),
                "LocalObservations::apply_h_into: shape mismatch");
  for (Index r = 0; r < size(); ++r) {
    const auto columns = h_columns(r);
    const auto weights = h_weights(r);
    double sum = 0.0;
    for (Index s = 0; s < columns.size(); ++s) {
      sum += weights[s] * x[columns[s]];
    }
    out[r] = sum;
  }
}

void LocalObservations::apply_ht_into(const linalg::Matrix& d,
                                      std::span<const Index> band_index,
                                      linalg::Matrix& out) const {
  SENKF_REQUIRE(d.rows() == size() && out.rows() == rect_.count() &&
                    out.cols() == d.cols() &&
                    band_index.size() == rect_.count(),
                "LocalObservations::apply_ht_into: shape mismatch");
  const auto& table = linalg::kernels::active_kernels();
  for (Index i = 0; i < out.rows(); ++i) {
    auto dst = out.row(i);
    std::fill(dst.begin(), dst.end(), 0.0);
  }
  for (Index r = 0; r < size(); ++r) {
    const auto columns = h_columns(r);
    const auto weights = h_weights(r);
    for (Index s = 0; s < columns.size(); ++s) {
      table.axpy(d.cols(), weights[s], d.row(r).data(),
                 out.row(band_index[columns[s]]).data());
    }
  }
}

Index LocalObservations::h_bandwidth(std::span<const Index> band_index) const {
  SENKF_REQUIRE(band_index.size() == rect_.count(),
                "LocalObservations::h_bandwidth: one band row per point");
  Index band = 0;
  for (Index r = 0; r < size(); ++r) {
    const auto columns = h_columns(r);
    if (columns.empty()) continue;
    Index lo = band_index[columns.front()];
    Index hi = lo;
    for (const Index j : columns) {
      lo = std::min(lo, band_index[j]);
      hi = std::max(hi, band_index[j]);
    }
    band = std::max(band, hi - lo);
  }
  return band;
}

void LocalObservations::add_ht_rinv_h(std::span<const Index> band_index,
                                      linalg::BandMatrix& a) const {
  SENKF_REQUIRE(a.dim() == rect_.count() &&
                    a.bandwidth() >= h_bandwidth(band_index),
                "LocalObservations::add_ht_rinv_h: band too narrow");
  for (Index r = 0; r < size(); ++r) {
    const auto columns = h_columns(r);
    const auto weights = h_weights(r);
    // One triangle of the row's outer product, t <= s, each pair landing
    // on its lower-band entry under the map.
    for (Index s = 0; s < columns.size(); ++s) {
      const double ws = weights[s] * rinv_[r];
      const Index bs = band_index[columns[s]];
      for (Index t = 0; t <= s; ++t) {
        a.symmetric(bs, band_index[columns[t]]) += ws * weights[t];
      }
    }
  }
}

linalg::Matrix LocalObservations::select_rows(
    const linalg::Matrix& global) const {
  linalg::Matrix out(selected_.size(), global.cols());
  select_rows_into(global, out);
  return out;
}

void LocalObservations::select_rows_into(const linalg::Matrix& global,
                                         linalg::Matrix& out) const {
  SENKF_REQUIRE(out.rows() == selected_.size() && out.cols() == global.cols(),
                "LocalObservations::select_rows_into: shape mismatch");
  for (Index row = 0; row < selected_.size(); ++row) {
    SENKF_REQUIRE(selected_[row] < global.rows(),
                  "LocalObservations::select_rows: index out of range");
    const auto src = global.row(selected_[row]);
    auto dst = out.row(row);
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

}  // namespace senkf::obs
