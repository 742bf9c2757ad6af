#include "obs/local_obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "../linalg/dense_h.hpp"
#include "grid/synthetic.hpp"
#include "linalg/ops.hpp"
#include "obs/perturbed.hpp"

namespace senkf::obs {
namespace {

struct Scenario {
  grid::LatLonGrid g{20, 12};
  grid::Field truth;
  ObservationSet set;

  explicit Scenario(std::uint64_t seed, Index stations = 60)
      : truth(make_truth(g, seed)), set(make_set(g, truth, seed, stations)) {}

  static grid::Field make_truth(const grid::LatLonGrid& g, std::uint64_t s) {
    senkf::Rng rng(s);
    return grid::synthetic_field(g, rng);
  }
  static ObservationSet make_set(const grid::LatLonGrid& g,
                                 const grid::Field& truth, std::uint64_t s,
                                 Index stations) {
    senkf::Rng rng(s + 1);
    NetworkOptions opt;
    opt.station_count = stations;
    return random_network(g, truth, rng, opt);
  }
};

TEST(LocalObservations, SelectsOnlySupportedComponents) {
  const Scenario sc(1);
  const grid::Rect rect{{5, 15}, {3, 9}};
  const LocalObservations local(sc.set, rect);
  for (const Index idx : local.selected()) {
    EXPECT_TRUE(sc.set.components()[idx].supported_by(rect));
  }
  // Complement check: everything not selected is genuinely unsupported.
  std::set<Index> chosen(local.selected().begin(), local.selected().end());
  for (Index i = 0; i < sc.set.size(); ++i) {
    if (!chosen.count(i)) {
      EXPECT_FALSE(sc.set.components()[i].supported_by(rect));
    }
  }
}

TEST(LocalObservations, WholeGridSelectsEverything) {
  const Scenario sc(2);
  const LocalObservations local(sc.set, sc.g.bounds());
  EXPECT_EQ(local.size(), sc.set.size());
}

TEST(LocalObservations, HAppliesLikeComponents) {
  const Scenario sc(3);
  const grid::Rect rect{{2, 18}, {1, 11}};
  const LocalObservations local(sc.set, rect);
  ASSERT_GT(local.size(), 0u);
  const grid::Patch patch = sc.truth.extract(rect);
  linalg::Vector x(patch.size());
  std::copy(patch.values().begin(), patch.values().end(), x.begin());
  linalg::Vector hx(local.size());
  local.apply_h_into(x, hx);
  for (Index row = 0; row < local.size(); ++row) {
    const double direct = sc.set.components()[local.selected()[row]].apply(patch);
    EXPECT_NEAR(hx[row], direct, 1e-12);
  }
}

TEST(LocalObservations, RDiagonalHoldsVariances) {
  const Scenario sc(4);
  const LocalObservations local(sc.set, sc.g.bounds());
  for (Index row = 0; row < local.size(); ++row) {
    const double std = sc.set.components()[local.selected()[row]].error_std;
    EXPECT_DOUBLE_EQ(local.r_diagonal()[row], std * std);
  }
}

TEST(LocalObservations, SelectRowsExtractsMatchingYs) {
  const Scenario sc(5);
  const auto ys = perturbed_observations(sc.set, 6, senkf::Rng(50));
  const grid::Rect rect{{0, 10}, {0, 6}};
  const LocalObservations local(sc.set, rect);
  const auto local_ys = local.select_rows(ys);
  EXPECT_EQ(local_ys.rows(), local.size());
  EXPECT_EQ(local_ys.cols(), 6u);
  for (Index row = 0; row < local.size(); ++row) {
    for (Index k = 0; k < 6; ++k) {
      EXPECT_DOUBLE_EQ(local_ys(row, k), ys(local.selected()[row], k));
    }
  }
}

TEST(LocalObservations, EmptyRegionYieldsNoObs) {
  const Scenario sc(6, 5);
  // A 1×1 rect in a sparse network is almost surely observation-free; use
  // a rect we know has no stations by checking.
  const grid::Rect rect{{0, 1}, {0, 1}};
  const LocalObservations local(sc.set, rect);
  bool any_station_there = false;
  for (const auto& comp : sc.set.components()) {
    if (comp.supported_by(rect)) any_station_there = true;
  }
  EXPECT_EQ(local.empty(), !any_station_there);
}

TEST(LocalObservations, ApplyHRejectsShapeMismatch) {
  const Scenario sc(7);
  const grid::Rect rect{{0, 10}, {0, 6}};
  const LocalObservations local(sc.set, rect);
  ASSERT_GT(local.size(), 0u);
  const Index n = rect.count();
  // x one point short of the rect, or an output of the wrong height.
  linalg::Vector hx(local.size());
  EXPECT_THROW(local.apply_h_into(linalg::Vector(n - 1), hx),
               senkf::InvalidArgument);
  linalg::Vector tall(local.size() + 1);
  EXPECT_THROW(local.apply_h_into(linalg::Vector(n), tall),
               senkf::InvalidArgument);
  linalg::Matrix hx_block(local.size(), 2);
  EXPECT_THROW(local.apply_h_into(linalg::Matrix(n - 1, 2), hx_block),
               senkf::InvalidArgument);
  linalg::Matrix narrow(local.size(), 1);
  EXPECT_THROW(local.apply_h_into(linalg::Matrix(n, 2), narrow),
               senkf::InvalidArgument);
}

TEST(LocalObservations, BilinearSupportRespectsRectBoundary) {
  // A 4-point bilinear component straddling the rect edge must be dropped.
  const grid::LatLonGrid g(10, 10);
  grid::Field truth(g, 1.0);
  ObsComponent straddle;
  straddle.support = {{{4, 4}, 0.25}, {{5, 4}, 0.25}, {{4, 5}, 0.25},
                      {{5, 5}, 0.25}};
  ObservationSet set(g, {straddle}, {1.0});
  const LocalObservations cut(set, grid::Rect{{0, 5}, {0, 10}});
  EXPECT_TRUE(cut.empty());
  const LocalObservations keep(set, grid::Rect{{0, 6}, {0, 10}});
  EXPECT_EQ(keep.size(), 1u);
}

TEST(LocalObservations, RowSupportsReproduceTheDenseOperator) {
  // The stochastic analysis applies H̄, H̄ᵀ and adds H̄ᵀR⁻¹H̄ through the
  // row supports; each must agree with the dense H̄.  Bilinear stations
  // give 4-point rows one rect width apart, plus one point station placed
  // twice to check repeated support points merge, and one component whose
  // repeated point cancels to weight 0, which must be dropped.
  const grid::LatLonGrid g(20, 12);
  senkf::Rng truth_rng(8);
  const grid::Field truth = grid::synthetic_field(g, truth_rng);
  senkf::Rng rng(9);
  NetworkOptions opt;
  opt.station_count = 50;
  opt.bilinear = true;
  const ObservationSet bilinear = random_network(g, truth, rng, opt);
  std::vector<ObsComponent> comps = bilinear.components();
  ObsComponent doubled;
  doubled.support = {{{3, 2}, 0.5}, {{3, 2}, 0.5}};
  doubled.error_std = 0.2;
  comps.push_back(doubled);
  ObsComponent cancelled;
  cancelled.support = {{{5, 3}, 0.5}, {{6, 3}, 0.25}, {{5, 3}, -0.5}};
  cancelled.error_std = 0.3;
  comps.push_back(cancelled);
  std::vector<double> values = bilinear.values();
  values.push_back(1.0);
  values.push_back(2.0);
  const ObservationSet set(g, comps, values);

  const grid::Rect rect{{1, 17}, {1, 11}};
  const LocalObservations local(set, rect);
  ASSERT_GT(local.size(), 2u);
  const linalg::Matrix h = testing::dense_h(set, local);
  const Index n = rect.count();

  Index widest = 0;
  for (Index r = 0; r < local.size(); ++r) {
    const auto columns = local.h_columns(r);
    ASSERT_FALSE(columns.empty());
    widest = std::max(widest, columns.back() - columns.front());
    Index nonzeros = 0;
    for (Index j = 0; j < n; ++j) nonzeros += h(r, j) != 0.0 ? 1 : 0;
    EXPECT_EQ(columns.size(), nonzeros);
    for (Index s = 0; s < columns.size(); ++s) {
      EXPECT_EQ(local.h_weights(r)[s], h(r, columns[s]));
    }
  }
  std::vector<Index> identity(n);
  std::iota(identity.begin(), identity.end(), Index{0});
  const Index band_width = local.h_bandwidth(identity);
  EXPECT_EQ(band_width, widest);
  EXPECT_EQ(band_width, rect.x.size() + 1);  // a bilinear row

  // The cancelled component keeps only its surviving point (6, 3).
  ASSERT_EQ(local.selected().back(), comps.size() - 1);
  const Index last = local.size() - 1;
  const Index survivor =
      (3 - rect.y.begin) * rect.x.size() + (6 - rect.x.begin);
  ASSERT_EQ(local.h_columns(last).size(), 1u);
  EXPECT_EQ(local.h_columns(last)[0], survivor);
  EXPECT_EQ(local.h_weights(last)[0], 0.25);

  linalg::Matrix x(n, 3);
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < 3; ++k) x(i, k) = rng.normal();
  }
  linalg::Matrix hx(local.size(), 3);
  local.apply_h_into(x, hx);
  EXPECT_LT(linalg::max_abs_diff(hx, linalg::multiply(h, x)), 1e-13);

  linalg::Matrix d(local.size(), 3);
  for (Index r = 0; r < local.size(); ++r) {
    for (Index k = 0; k < 3; ++k) d(r, k) = rng.normal();
  }
  linalg::Matrix htd(n, 3);
  local.apply_ht_into(d, identity, htd);
  EXPECT_LT(linalg::max_abs_diff(htd, linalg::multiply_at_b(h, d)), 1e-13);

  linalg::Matrix rinv_h = h;
  linalg::row_scale(local.r_inverse(), rinv_h);
  const linalg::Matrix dense = linalg::multiply_at_b(h, rinv_h);
  std::vector<double> storage(
      linalg::BandMatrix::storage_size(n, band_width), 0.0);
  linalg::BandMatrix band(storage, n, band_width);
  local.add_ht_rinv_h(identity, band);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) {
      const double want = dense(i, j);
      if (i - j > band_width) {
        EXPECT_EQ(want, 0.0);
      } else {
        EXPECT_NEAR(band(i, j), want, 1e-12 * (1.0 + std::abs(want)));
      }
    }
  }
  // A band narrower than the supports is refused.
  std::vector<double> narrow(linalg::BandMatrix::storage_size(n, 2), 0.0);
  linalg::BandMatrix too_narrow(narrow, n, 2);
  EXPECT_THROW(local.add_ht_rinv_h(identity, too_narrow),
               senkf::InvalidArgument);

  // Numbered y fastest, a bilinear row spans one column step plus one
  // point: rect height + 1.  The assembly and H̄ᵀd land each entry of
  // the row-major sums bitwise on its renumbered position.
  const Index width = rect.x.size();
  const Index height = rect.y.size();
  std::vector<Index> y_fastest(n);
  for (Index i = 0; i < n; ++i) {
    y_fastest[i] = (i % width) * height + i / width;
  }
  const Index y_width = local.h_bandwidth(y_fastest);
  EXPECT_EQ(y_width, height + 1);
  std::vector<double> y_storage(
      linalg::BandMatrix::storage_size(n, y_width), 0.0);
  linalg::BandMatrix y_band(y_storage, n, y_width);
  local.add_ht_rinv_h(y_fastest, y_band);
  linalg::Matrix y_htd(n, 3);
  local.apply_ht_into(d, y_fastest, y_htd);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) {
      const Index bi = y_fastest[i];
      const Index bj = y_fastest[j];
      const Index spread = bi > bj ? bi - bj : bj - bi;
      if (spread > y_width) {
        EXPECT_EQ(dense(i, j), 0.0);
      } else {
        EXPECT_EQ(y_band.symmetric(bi, bj),
                  i - j <= band_width ? band(i, j) : 0.0);
      }
    }
    for (Index k = 0; k < 3; ++k) EXPECT_EQ(y_htd(y_fastest[i], k), htd(i, k));
  }
}

}  // namespace
}  // namespace senkf::obs
