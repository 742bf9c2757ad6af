#include "enkf/local_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../linalg/dense_factor.hpp"
#include "../linalg/dense_h.hpp"
#include "enkf/ensemble_store.hpp"
#include "expansion_predecessors.hpp"
#include "grid/synthetic.hpp"
#include "linalg/covariance.hpp"
#include "linalg/ops.hpp"
#include "linalg/solve.hpp"

namespace senkf::enkf {
namespace {

struct Scenario {
  grid::LatLonGrid g{16, 12};
  grid::SyntheticEnsemble ensemble;
  obs::ObservationSet observations;
  linalg::Matrix ys;

  explicit Scenario(std::uint64_t seed, Index members = 8,
                    Index stations = 40)
      : ensemble(make_ensemble(g, members, seed)),
        observations(make_obs(g, ensemble.truth, seed, stations)),
        ys(obs::perturbed_observations(observations, members,
                                       senkf::Rng(seed + 99))) {}

  static grid::SyntheticEnsemble make_ensemble(const grid::LatLonGrid& g,
                                               Index members,
                                               std::uint64_t seed) {
    senkf::Rng rng(seed);
    return grid::synthetic_ensemble(g, members, rng, 0.5);
  }
  static obs::ObservationSet make_obs(const grid::LatLonGrid& g,
                                      const grid::Field& truth,
                                      std::uint64_t seed, Index stations) {
    senkf::Rng rng(seed + 1);
    obs::NetworkOptions opt;
    opt.station_count = stations;
    opt.error_std = 0.05;
    return obs::random_network(g, truth, rng, opt);
  }

  /// Every member viewed on the whole grid; the kernel gathers each
  /// expansion window in place.
  std::vector<grid::PatchView> views() const {
    std::vector<grid::PatchView> out;
    for (const auto& member : ensemble.members) {
      out.emplace_back(g.bounds(), member.data());
    }
    return out;
  }
};

AnalysisOptions default_options() {
  AnalysisOptions opt;
  opt.halo = grid::Halo{2, 1};
  opt.ridge = 1e-6;
  return opt;
}

TEST(LocalAnalysis, ReducesErrorAgainstTruth) {
  const Scenario sc(1);
  const grid::Rect whole = sc.g.bounds();
  LocalAnalysisWorkspace ws;
  const AnalysisView result =
      local_analysis_scratch(sc.views(), whole, whole, sc.observations, sc.ys,
                             default_options(), ws);
  ASSERT_EQ(result.members.size(), sc.ensemble.members.size());
  const grid::Patch truth_patch = sc.ensemble.truth.extract(whole);
  double before = 0.0, after = 0.0;
  for (Index k = 0; k < result.members.size(); ++k) {
    const grid::Patch bg = sc.ensemble.members[k].extract(whole);
    for (Index i = 0; i < truth_patch.size(); ++i) {
      const double tb = bg.values()[i] - truth_patch.values()[i];
      const double ta = result.members[k].values()[i] -
                        truth_patch.values()[i];
      before += tb * tb;
      after += ta * ta;
    }
  }
  EXPECT_LT(after, 0.6 * before);
}

TEST(LocalAnalysis, NoObservationsLeavesBackgroundUntouched) {
  const Scenario sc(2, 8, 1);
  // Find a rect guaranteed to contain no stations.
  grid::Rect rect{{0, 4}, {0, 4}};
  const auto& comp = sc.observations.components()[0];
  if (comp.supported_by(rect)) rect = grid::Rect{{8, 12}, {6, 10}};
  ASSERT_FALSE(comp.supported_by(rect));
  LocalAnalysisWorkspace ws;
  const AnalysisView result = local_analysis_scratch(
      sc.views(), rect, rect, sc.observations, sc.ys, default_options(), ws);
  for (Index k = 0; k < result.members.size(); ++k) {
    const grid::Patch bg = sc.ensemble.members[k].extract(rect);
    EXPECT_EQ(result.members[k].materialize().values(), bg.values());
  }
}

TEST(LocalAnalysis, MatchesIndependentDenseSolve) {
  // Rebuild eq. (5)/(6) with an LU solve (independent of the production
  // Cholesky path) and compare.
  const Scenario sc(3, 6, 25);
  const grid::Rect rect = sc.g.bounds();
  const AnalysisOptions opt = default_options();
  LocalAnalysisWorkspace ws;
  const AnalysisView result = local_analysis_scratch(
      sc.views(), rect, rect, sc.observations, sc.ys, opt, ws);

  const Index n = rect.count();
  const Index members = sc.ensemble.members.size();
  linalg::Matrix xb(n, members);
  for (Index k = 0; k < members; ++k) {
    const auto patch = sc.ensemble.members[k].extract(rect);
    for (Index i = 0; i < n; ++i) xb(i, k) = patch.values()[i];
  }
  const auto binv = linalg::testing::estimate_inverse_covariance(
      linalg::ensemble_anomalies(xb),
      testing::expansion_predecessors(rect, opt.halo), opt.ridge);
  const obs::LocalObservations local(sc.observations, rect);
  const linalg::Matrix h = obs::testing::dense_h(sc.observations, local);
  linalg::Matrix system = linalg::testing::dense_inverse_covariance(binv);
  linalg::Matrix rinv_h = h;
  for (Index r = 0; r < local.size(); ++r) {
    for (Index cidx = 0; cidx < rinv_h.cols(); ++cidx) {
      rinv_h(r, cidx) /= local.r_diagonal()[r];
    }
  }
  linalg::axpy(1.0, linalg::multiply_at_b(h, rinv_h), system);
  linalg::Matrix innovations = linalg::multiply(h, xb);
  linalg::scale(innovations, -1.0);
  linalg::axpy(1.0, local.select_rows(sc.ys), innovations);
  for (Index r = 0; r < local.size(); ++r) {
    for (Index cidx = 0; cidx < innovations.cols(); ++cidx) {
      innovations(r, cidx) /= local.r_diagonal()[r];
    }
  }
  const linalg::Matrix rhs = linalg::multiply_at_b(h, innovations);
  const linalg::Matrix delta = linalg::LuFactor(system).solve(rhs);

  for (Index k = 0; k < members; ++k) {
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(result.members[k].values()[i], xb(i, k) + delta(i, k),
                  1e-8);
    }
  }
}

TEST(LocalAnalysis, TargetProjectionExtractsSubRect) {
  const Scenario sc(4);
  const grid::Rect expansion{{0, 12}, {0, 8}};
  const grid::Rect target{{2, 8}, {2, 6}};
  LocalAnalysisWorkspace full_ws;
  LocalAnalysisWorkspace projected_ws;
  const AnalysisView full =
      local_analysis_scratch(sc.views(), expansion, expansion,
                             sc.observations, sc.ys, default_options(),
                             full_ws);
  const AnalysisView projected =
      local_analysis_scratch(sc.views(), expansion, target, sc.observations,
                             sc.ys, default_options(), projected_ws);
  for (Index k = 0; k < projected.members.size(); ++k) {
    for (Index y = target.y.begin; y < target.y.end; ++y) {
      for (Index x = target.x.begin; x < target.x.end; ++x) {
        EXPECT_DOUBLE_EQ(projected.members[k].at(x, y),
                         full.members[k].at(x, y));
      }
    }
  }
}

TEST(LocalAnalysis, ValidatesInputs) {
  const Scenario sc(5);
  const grid::Rect rect{{0, 8}, {0, 8}};
  const auto views = sc.views();
  LocalAnalysisWorkspace ws;
  const auto analyse = [&](std::span<const grid::PatchView> background,
                           grid::Rect target, const linalg::Matrix& ys) {
    return local_analysis_scratch(background, rect, target, sc.observations,
                                  ys, default_options(), ws);
  };
  // Target outside expansion.
  EXPECT_THROW(analyse(views, grid::Rect{{0, 9}, {0, 8}}, sc.ys),
               senkf::InvalidArgument);
  // A member that does not cover the expansion.
  const grid::Patch short_member =
      sc.ensemble.members[1].extract(grid::Rect{{0, 8}, {0, 7}});
  auto bad = views;
  bad[1] = short_member;
  EXPECT_THROW(analyse(bad, rect, sc.ys), senkf::InvalidArgument);
  // Too few members.
  EXPECT_THROW(analyse(std::span(views).first(1), rect, sc.ys),
               senkf::InvalidArgument);
  // Wrong Ys width.
  const linalg::Matrix bad_ys(sc.observations.size(), 3);
  EXPECT_THROW(analyse(views, rect, bad_ys), senkf::InvalidArgument);
}

TEST(LocalAnalysis, RejectsBadOptionsOnRectsWithoutObservations) {
  // The options are validated before the no-observation skip, so every
  // engine fails on a bad value whichever rects it happens to analyse.
  const Scenario sparse(2, 8, 1);
  grid::Rect rect{{0, 4}, {0, 4}};
  const auto& comp = sparse.observations.components()[0];
  if (comp.supported_by(rect)) rect = grid::Rect{{8, 12}, {6, 10}};
  ASSERT_FALSE(comp.supported_by(rect));
  LocalAnalysisWorkspace ws;
  const auto analyse = [&](const AnalysisOptions& opt) {
    return local_analysis_scratch(sparse.views(), rect, rect,
                                  sparse.observations, sparse.ys, opt, ws);
  };
  EXPECT_NO_THROW(analyse(default_options()));
  AnalysisOptions deflating = default_options();
  deflating.inflation = 0.5;
  EXPECT_THROW(analyse(deflating), senkf::InvalidArgument);
  AnalysisOptions negative_ridge = default_options();
  negative_ridge.ridge = -1.0;
  EXPECT_THROW(analyse(negative_ridge), senkf::InvalidArgument);
  negative_ridge.kind = AnalysisKind::kDeterministicTransform;
  EXPECT_THROW(analyse(negative_ridge), senkf::InvalidArgument);
}

/// The oracle's set for point i, copied out of its arena.
std::vector<linalg::Index> oracle_set(ExpansionPredecessorOracle& oracle,
                                      Index i) {
  support::Arena arena;
  const auto pred = oracle.predecessors(i, arena);
  return {pred.begin(), pred.end()};
}

TEST(ExpansionPredecessors, RespectsHaloWindow) {
  const grid::Rect rect{{0, 5}, {0, 4}};  // 5 wide, 4 tall
  ExpansionPredecessorOracle oracle(rect, grid::Halo{1, 1});
  EXPECT_TRUE(oracle_set(oracle, 0).empty());
  // Point (x=2, y=1) = index 7: window x∈{1,2,3}, y∈{0,1}, earlier only.
  EXPECT_EQ(oracle_set(oracle, 7), (std::vector<linalg::Index>{1, 2, 3, 6}));
  // Point (x=0, y=2) = index 10: window x∈{0,1}, y∈{1,2}.
  EXPECT_EQ(oracle_set(oracle, 10), (std::vector<linalg::Index>{5, 6}));
}

TEST(ExpansionPredecessors, ZeroHaloGivesNoPredecessors) {
  const grid::Rect rect{{0, 4}, {0, 4}};
  ExpansionPredecessorOracle oracle(rect, grid::Halo{0, 0});
  for (Index i = 0; i < 16; ++i) EXPECT_TRUE(oracle_set(oracle, i).empty());
}

TEST(ExpansionPredecessors, OracleMatchesTheReferenceNeighbourhood) {
  // The test references estimate B̂⁻¹ on their own copy of the
  // neighbourhood; it must be the set the oracle hands the estimator.
  const grid::Rect rect{{3, 10}, {2, 7}};  // 7 wide, 5 tall
  for (const grid::Halo halo : {grid::Halo{1, 1}, grid::Halo{2, 1},
                                grid::Halo{3, 0}, grid::Halo{0, 2}}) {
    ExpansionPredecessorOracle oracle(rect, halo);
    const auto reference = testing::expansion_predecessors(rect, halo);
    for (Index i = 0; i < rect.count(); ++i) {
      EXPECT_EQ(oracle_set(oracle, i), reference(i))
          << "halo (" << halo.xi << ", " << halo.eta << "), point " << i;
    }
  }
}

/// choose_band_numbering on `expansion` of `mesh`: L comes from the
/// estimator over the oracle's neighbourhoods (its values do not matter
/// to the measure, only which columns each row holds).
BandNumbering numbering_for(const grid::LatLonGrid& mesh, grid::Rect expansion,
                            grid::Halo halo, bool bilinear,
                            support::Arena& arena) {
  senkf::Rng rng(31);
  const grid::Field truth = grid::synthetic_field(mesh, rng);
  obs::NetworkOptions opt;
  opt.station_count = mesh.size() / 8;
  opt.bilinear = bilinear;
  const obs::ObservationSet observations =
      obs::random_network(mesh, truth, rng, opt);
  const obs::LocalObservations local(observations, expansion);
  linalg::Matrix anomalies(expansion.count(), 4);
  for (Index i = 0; i < anomalies.rows(); ++i) {
    for (Index k = 0; k < anomalies.cols(); ++k) anomalies(i, k) = rng.normal();
  }
  ExpansionPredecessorOracle oracle(expansion, halo);
  const linalg::ModifiedCholesky binv =
      linalg::estimate_inverse_covariance_scratch(anomalies, oracle, 1e-6,
                                                  arena);
  return choose_band_numbering(expansion, binv.l, local, arena);
}

TEST(BandNumbering, WideShortExpansionNumbersYFastest) {
  // A numbench stoch-warm layer expansion: 74 wide, 11 tall, halo (1,1).
  // Row-major, L reaches one grid row back plus ξ (η·74 + ξ = 75) and a
  // bilinear station spans width + 1 = 75.  Y fastest, L's row spans
  // (x−ξ, y−η) .. (x+ξ, y−1): 2ξ·11 + η − 1 = 22, and a station 11 + 1.
  const grid::LatLonGrid mesh(80, 16);
  const grid::Rect expansion{{3, 77}, {2, 13}};
  support::Arena arena;
  const BandNumbering numbering =
      numbering_for(mesh, expansion, grid::Halo{1, 1}, true, arena);
  EXPECT_EQ(numbering.row_major_bandwidth, 75u);
  EXPECT_EQ(numbering.y_fastest_bandwidth, 22u);
  EXPECT_TRUE(numbering.y_fastest);
  EXPECT_EQ(numbering.bandwidth(), 22u);
  // The map is y fastest: point (x, y) of the expansion on band row
  // x·height + y, a permutation of 0 .. n̄−1.
  const Index width = expansion.x.size();
  const Index height = expansion.y.size();
  ASSERT_EQ(numbering.band_index.size(), expansion.count());
  std::vector<bool> seen(expansion.count(), false);
  for (Index i = 0; i < expansion.count(); ++i) {
    EXPECT_EQ(numbering.band_index[i], (i % width) * height + i / width);
    seen[numbering.band_index[i]] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(BandNumbering, SquareAndTallExpansionsKeepRowMajor) {
  const grid::LatLonGrid mesh(16, 16);
  const grid::Rect square{{0, 12}, {0, 12}};
  const grid::Rect tall{{2, 8}, {0, 16}};
  const grid::Rect column{{5, 6}, {0, 16}};
  for (const grid::Rect expansion : {square, tall, column}) {
    for (const grid::Halo halo : {grid::Halo{1, 1}, grid::Halo{2, 1}}) {
      for (const bool bilinear : {false, true}) {
        support::Arena arena;
        const BandNumbering numbering =
            numbering_for(mesh, expansion, halo, bilinear, arena);
        EXPECT_FALSE(numbering.y_fastest)
            << expansion.x.size() << "x" << expansion.y.size();
        EXPECT_LE(numbering.row_major_bandwidth, numbering.y_fastest_bandwidth);
        for (Index i = 0; i < expansion.count(); ++i) {
          EXPECT_EQ(numbering.band_index[i], i);
        }
      }
    }
  }
}

TEST(BandNumbering, TieKeepsRowMajor) {
  // No predecessors and point stations: nothing leaves the diagonal
  // under either numbering.
  const grid::LatLonGrid mesh(16, 8);
  const grid::Rect expansion{{0, 16}, {0, 3}};
  support::Arena arena;
  const BandNumbering numbering =
      numbering_for(mesh, expansion, grid::Halo{0, 0}, false, arena);
  EXPECT_EQ(numbering.row_major_bandwidth, 0u);
  EXPECT_EQ(numbering.y_fastest_bandwidth, 0u);
  EXPECT_FALSE(numbering.y_fastest);
}

}  // namespace
}  // namespace senkf::enkf
