// Workspace-reuse acceptance gate (DESIGN.md §15).
//
// The reference below is a frozen copy of the pre-workspace local
// analysis (allocating linalg API, per-call LocalObservations, owning
// temporaries, the dense m̄×n̄ H̄ rebuilt by obs::testing::dense_h, and
// for the stochastic scheme the dense n̄×n̄ system B̂⁻¹ + HᵀR⁻¹H solved
// by dense LU — an algorithm the library does not use, so the oracle
// shares no solver code with the band Cholesky under test).  Every test
// compares the production entry points against it — across analysis
// kinds, inflation settings, reused workspaces of varying shapes,
// threads, and the wire framing:
//   * the deterministic transform must match it bitwise on point
//     stations (same gather, same kernel sequence on same-stride
//     scratch, same projection; a one-point row of H̄ gives the same
//     product dense or sparse), and to kBilinearTolerance on bilinear
//     stations, whose four products the supports sum in another order;
//   * the stochastic update solves the same system on its band (see
//     linalg/banded.hpp), which reorders the floating-point sums, so it
//     must match to kStochasticTolerance, relative to the member's
//     largest value.  Runs of the production kernel still agree with
//     each other bitwise, whatever the workspace or thread.
// Under AddressSanitizer it also checks that a result read after its
// workspace is reset is reported.
#include "enkf/local_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "../linalg/dense_factor.hpp"
#include "../linalg/dense_h.hpp"
#include "enkf/patch_wire.hpp"
#include "expansion_predecessors.hpp"
#include "grid/synthetic.hpp"
#include "linalg/covariance.hpp"
#include "linalg/eigen.hpp"
#include "linalg/ops.hpp"
#include "linalg/solve.hpp"
#include "obs/local_obs_cache.hpp"
#include "obs/perturbed.hpp"
#include "parcomm/wire.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SENKF_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SENKF_TEST_ASAN 1
#endif
#endif

namespace senkf::enkf {
namespace {

struct Scenario {
  grid::LatLonGrid g{16, 12};
  grid::SyntheticEnsemble ensemble;
  obs::ObservationSet observations;
  linalg::Matrix ys;

  explicit Scenario(std::uint64_t seed, Index members = 8,
                    Index stations = 40, bool bilinear = false)
      : ensemble(make_ensemble(g, members, seed)),
        observations(make_obs(g, ensemble.truth, seed, stations, bilinear)),
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
                                      std::uint64_t seed, Index stations,
                                      bool bilinear) {
    senkf::Rng rng(seed + 1);
    obs::NetworkOptions opt;
    opt.station_count = stations;
    opt.error_std = 0.05;
    opt.bilinear = bilinear;
    return obs::random_network(g, truth, rng, opt);
  }

  std::vector<grid::Patch> patches(grid::Rect rect) const {
    std::vector<grid::Patch> out;
    for (const auto& member : ensemble.members) {
      out.push_back(member.extract(rect));
    }
    return out;
  }
};

AnalysisOptions options_for(AnalysisKind kind, double inflation) {
  AnalysisOptions opt;
  opt.kind = kind;
  opt.halo = grid::Halo{2, 1};
  opt.ridge = 1e-6;
  opt.inflation = inflation;
  return opt;
}

/// The owning result the reference returns: the analysis restricted to
/// the target rect, one patch per member (same order as the inputs).
struct AnalysisResult {
  std::vector<grid::Patch> members;
  Index local_observations = 0;  ///< m̄: observations used
};

// ---------------------------------------------------------------------------
// Reference: the pre-workspace local analysis, copied verbatim (allocating
// temporaries, per-call localization).  Any change here invalidates the
// gate — do not "modernize" it.
// ---------------------------------------------------------------------------

AnalysisResult reference_project(const linalg::Matrix& xa, grid::Rect target,
                                 grid::Rect expansion,
                                 Index local_observations) {
  AnalysisResult result;
  result.local_observations = local_observations;
  const Index width = expansion.x.size();
  result.members.reserve(xa.cols());
  for (Index k = 0; k < xa.cols(); ++k) {
    grid::Patch out(target);
    for (Index y = target.y.begin; y < target.y.end; ++y) {
      for (Index x = target.x.begin; x < target.x.end; ++x) {
        const Index local_index =
            (y - expansion.y.begin) * width + (x - expansion.x.begin);
        out.at(x, y) = xa(local_index, k);
      }
    }
    result.members.push_back(std::move(out));
  }
  return result;
}

AnalysisResult reference_deterministic(const linalg::Matrix& xb,
                                       grid::Rect target,
                                       grid::Rect expansion,
                                       const obs::LocalObservations& local,
                                       const obs::ObservationSet& observations) {
  const Index n_members = xb.cols();
  const double scale = static_cast<double>(n_members - 1);

  const linalg::Vector mean = linalg::ensemble_mean(xb);
  linalg::Matrix anomalies = xb;
  for (Index i = 0; i < xb.rows(); ++i) {
    for (Index k = 0; k < n_members; ++k) anomalies(i, k) -= mean[i];
  }

  const linalg::Matrix h = obs::testing::dense_h(observations, local);
  const linalg::Matrix y_tilde = linalg::multiply(h, anomalies);
  const linalg::Vector hx_mean = linalg::multiply(h, mean);
  linalg::Vector innovation(local.size());
  for (Index r = 0; r < local.size(); ++r) {
    innovation[r] =
        observations.values()[local.selected()[r]] - hx_mean[r];
  }

  linalg::Vector rinv(local.size());
  for (Index r = 0; r < local.size(); ++r) {
    rinv[r] = 1.0 / local.r_diagonal()[r];
  }
  linalg::Matrix rinv_y = y_tilde;
  linalg::row_scale(rinv, rinv_y);
  linalg::Matrix system = linalg::multiply_at_b(y_tilde, rinv_y);
  for (Index k = 0; k < n_members; ++k) system(k, k) += scale;

  const linalg::SymmetricEigen eig = linalg::symmetric_eigen(system);
  linalg::Matrix v_scaled_inv = eig.vectors;
  linalg::Matrix v_scaled_sqrt = eig.vectors;
  for (Index j = 0; j < n_members; ++j) {
    if (eig.values[j] <= 0.0) {
      throw NumericError("deterministic transform: singular system");
    }
    const double inv = 1.0 / eig.values[j];
    const double inv_sqrt = std::sqrt(inv);
    for (Index i = 0; i < n_members; ++i) {
      v_scaled_inv(i, j) *= inv;
      v_scaled_sqrt(i, j) *= inv_sqrt;
    }
  }
  const linalg::Matrix p_tilde =
      linalg::multiply_a_bt(v_scaled_inv, eig.vectors);
  linalg::Matrix transform =
      linalg::multiply_a_bt(v_scaled_sqrt, eig.vectors);
  linalg::scale(transform, std::sqrt(scale));

  const linalg::Vector rhs = linalg::multiply_at(rinv_y, innovation);
  const linalg::Vector w_mean = linalg::multiply(p_tilde, rhs);

  for (Index i = 0; i < n_members; ++i) {
    for (Index k = 0; k < n_members; ++k) transform(i, k) += w_mean[i];
  }
  linalg::Matrix xa = linalg::multiply(anomalies, transform);
  for (Index i = 0; i < xb.rows(); ++i) {
    for (Index k = 0; k < n_members; ++k) xa(i, k) += mean[i];
  }
  return reference_project(xa, target, expansion, local.size());
}

AnalysisResult reference_local_analysis(
    const std::vector<grid::Patch>& background, grid::Rect target,
    const obs::ObservationSet& observations, const linalg::Matrix& perturbed,
    const AnalysisOptions& options) {
  const grid::Rect expansion = background.front().rect();
  const Index n_bar = expansion.count();
  const Index n_members = background.size();

  const obs::LocalObservations local(observations, expansion);

  AnalysisResult result;
  result.local_observations = local.size();
  if (local.empty() && options.skip_without_obs) {
    for (const auto& patch : background) {
      result.members.push_back(patch.extract(target));
    }
    return result;
  }

  linalg::Matrix xb(n_bar, n_members);
  for (Index k = 0; k < n_members; ++k) {
    const auto& values = background[k].values();
    for (Index i = 0; i < n_bar; ++i) xb(i, k) = values[i];
  }

  if (options.inflation != 1.0) {
    const linalg::Vector mean = linalg::ensemble_mean(xb);
    for (Index i = 0; i < n_bar; ++i) {
      for (Index k = 0; k < n_members; ++k) {
        xb(i, k) = mean[i] + options.inflation * (xb(i, k) - mean[i]);
      }
    }
  }

  if (options.kind == AnalysisKind::kDeterministicTransform) {
    return reference_deterministic(xb, target, expansion, local,
                                   observations);
  }

  const linalg::Matrix anomalies = linalg::ensemble_anomalies(xb);
  const linalg::ModifiedCholesky binv_factors =
      linalg::testing::estimate_inverse_covariance(
          anomalies, testing::expansion_predecessors(expansion, options.halo),
          options.ridge);
  linalg::Matrix system =
      linalg::testing::dense_inverse_covariance(binv_factors);

  const linalg::Matrix h = obs::testing::dense_h(observations, local);
  const linalg::Vector& r_diag = local.r_diagonal();
  const Index m_bar = local.size();
  linalg::Vector rinv(m_bar);
  for (Index row = 0; row < m_bar; ++row) rinv[row] = 1.0 / r_diag[row];
  linalg::Matrix rinv_h = h;
  linalg::row_scale(rinv, rinv_h);
  const linalg::Matrix ht_rinv_h = linalg::multiply_at_b(h, rinv_h);
  linalg::axpy(1.0, ht_rinv_h, system);

  const linalg::Matrix local_ys = local.select_rows(perturbed);
  const linalg::Matrix innovations =
      linalg::weighted_residual(local_ys, linalg::multiply(h, xb), rinv);
  const linalg::Matrix rhs = linalg::multiply_at_b(h, innovations);

  const linalg::Matrix delta = linalg::LuFactor(system).solve(rhs);
  linalg::axpy(1.0, delta, xb);

  return reference_project(xb, target, expansion, local.size());
}

// ---------------------------------------------------------------------------

/// Copies a scratch result out of its workspace.
AnalysisResult owned(const AnalysisView& view) {
  AnalysisResult result;
  result.local_observations = view.local_observations;
  for (const grid::PatchView& member : view.members) {
    result.members.push_back(member.materialize());
  }
  return result;
}

/// Runs the scratch kernel on owning patches that sit on the expansion.
AnalysisView scratch_on(const std::vector<grid::Patch>& background,
                        grid::Rect rect, const Scenario& sc,
                        const AnalysisOptions& opt,
                        LocalAnalysisWorkspace& ws,
                        std::vector<grid::PatchView>& views) {
  views.assign(background.begin(), background.end());
  return local_analysis_scratch(views, rect, rect, sc.observations, sc.ys,
                                opt, ws);
}

void expect_identical(const AnalysisResult& got, const AnalysisResult& want) {
  ASSERT_EQ(got.members.size(), want.members.size());
  EXPECT_EQ(got.local_observations, want.local_observations);
  for (Index k = 0; k < got.members.size(); ++k) {
    ASSERT_TRUE(got.members[k].rect() == want.members[k].rect());
    EXPECT_EQ(got.members[k].values(), want.members[k].values())
        << "member " << k << " differs from the seed implementation";
  }
}

// Banded Cholesky vs dense LU solve of the stochastic system: max over a
// member's points of |got − want|, relative to the member's largest
// |want|.  Measured over every case in this file, the wide rects solved
// on their y-fastest band included: at most 7.4e-11 (scalar kernels),
// 5.8e-11 (AVX2), 8.5e-11 (AVX-512).  That is the system's
// conditioning, not the band solver's accuracy: a dense Cholesky and a
// dense LU solve of the same system differ by up to 3.6e-11 on the
// square cases.  The bound keeps ~12× headroom over the worst
// measurement.
constexpr double kStochasticTolerance = 1e-9;

// Row-support vs dense application of a bilinear H̄ in the deterministic
// transform, same relative measure.  Measured on the bilinear case below:
// 0 (scalar kernels), 8.1e-15 (AVX2), 4.9e-15 (AVX-512).  Point stations
// have one support point per row, so there the two agree bitwise.
constexpr double kBilinearTolerance = 1e-12;

double relative_difference(std::span<const double> got,
                           std::span<const double> want) {
  double diff = 0.0;
  double scale = 0.0;
  for (Index i = 0; i < want.size(); ++i) {
    diff = std::max(diff, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

void expect_close(const AnalysisResult& got, const AnalysisResult& want) {
  ASSERT_EQ(got.members.size(), want.members.size());
  EXPECT_EQ(got.local_observations, want.local_observations);
  for (Index k = 0; k < got.members.size(); ++k) {
    ASSERT_TRUE(got.members[k].rect() == want.members[k].rect());
    EXPECT_LE(relative_difference(got.members[k].values(),
                                  want.members[k].values()),
              kStochasticTolerance)
        << "member " << k << " strays from the dense reference";
  }
}

/// The gate for `kind`: bitwise for the deterministic transform, the
/// stated tolerance for the banded stochastic solve.
void expect_matches(AnalysisKind kind, const AnalysisResult& got,
                    const AnalysisResult& want) {
  if (kind == AnalysisKind::kDeterministicTransform) {
    expect_identical(got, want);
  } else {
    expect_close(got, want);
  }
}

// A mix of rects of different shapes (so a reused workspace grows, then
// serves smaller patches from the same chunks) with a repeat at the end.
// The two 16×3 rects are wide and short: at halo (2,1) the stochastic
// band numbers them y fastest (b 18 → 12); the others stay row-major.
std::vector<grid::Rect> varied_rects() {
  return {
      grid::Rect{{0, 6}, {0, 6}},  grid::Rect{{0, 16}, {0, 12}},
      grid::Rect{{4, 12}, {2, 10}}, grid::Rect{{10, 16}, {6, 12}},
      grid::Rect{{0, 16}, {0, 3}},  grid::Rect{{0, 16}, {5, 8}},
      grid::Rect{{0, 6}, {0, 6}},
  };
}

/// The band numbering the stochastic update picks for `rect`: L from the
/// estimator on the scenario's anomalies over the oracle's neighbourhoods.
BandNumbering band_numbering_of(const Scenario& sc, grid::Rect rect,
                                grid::Halo halo, support::Arena& arena) {
  const auto background = sc.patches(rect);
  linalg::Matrix xb(rect.count(), background.size());
  for (Index k = 0; k < background.size(); ++k) {
    for (Index i = 0; i < rect.count(); ++i) {
      xb(i, k) = background[k].values()[i];
    }
  }
  ExpansionPredecessorOracle oracle(rect, halo);
  const linalg::ModifiedCholesky binv =
      linalg::estimate_inverse_covariance_scratch(
          linalg::ensemble_anomalies(xb), oracle, 1e-6, arena);
  const obs::LocalObservations local(sc.observations, rect);
  return choose_band_numbering(rect, binv.l, local, arena);
}

class Workspace : public ::testing::Test {
 protected:
  void SetUp() override { obs::clear_localization_cache(); }
  void TearDown() override { obs::clear_localization_cache(); }
};

TEST_F(Workspace, StochasticReuseMatchesDenseReference) {
  const Scenario sc(11);
  LocalAnalysisWorkspace ws;
  std::vector<grid::PatchView> views;
  for (const double inflation : {1.0, 1.05}) {
    const AnalysisOptions opt =
        options_for(AnalysisKind::kStochasticModifiedCholesky, inflation);
    for (const grid::Rect rect : varied_rects()) {
      const auto background = sc.patches(rect);
      const auto want = reference_local_analysis(background, rect,
                                                 sc.observations, sc.ys, opt);
      const AnalysisResult got =
          owned(scratch_on(background, rect, sc, opt, ws, views));
      expect_close(got, want);
      // Reuse must not leak into the numbers: a fresh workspace gives
      // bitwise the same analysis.
      LocalAnalysisWorkspace fresh;
      std::vector<grid::PatchView> fresh_views;
      const AnalysisResult again =
          owned(scratch_on(background, rect, sc, opt, fresh, fresh_views));
      expect_identical(got, again);
    }
  }
}

TEST_F(Workspace, DeterministicReuseMatchesSeedBitwise) {
  const Scenario sc(12);
  LocalAnalysisWorkspace ws;
  std::vector<grid::PatchView> views;
  for (const double inflation : {1.0, 1.05}) {
    const AnalysisOptions opt =
        options_for(AnalysisKind::kDeterministicTransform, inflation);
    for (const grid::Rect rect : varied_rects()) {
      const auto background = sc.patches(rect);
      const auto want = reference_local_analysis(background, rect,
                                                 sc.observations, sc.ys, opt);
      expect_identical(owned(scratch_on(background, rect, sc, opt, ws, views)),
                       want);
    }
  }
}

TEST_F(Workspace, DeterministicBilinearStationsMatchSeedToRounding) {
  // A bilinear row has four support points.  The seed's dense H̄ sums
  // their products in the GEMM kernel's order (lane-split under SIMD
  // tables), the supports in ascending column order, so Ỹ = H̄U and H̄x̄
  // may differ in the last bits.
  const Scenario sc(18, 8, 40, /*bilinear=*/true);
  LocalAnalysisWorkspace ws;
  std::vector<grid::PatchView> views;
  for (const double inflation : {1.0, 1.05}) {
    const AnalysisOptions opt =
        options_for(AnalysisKind::kDeterministicTransform, inflation);
    for (const grid::Rect rect : varied_rects()) {
      const auto background = sc.patches(rect);
      const auto want = reference_local_analysis(background, rect,
                                                 sc.observations, sc.ys, opt);
      const AnalysisResult got =
          owned(scratch_on(background, rect, sc, opt, ws, views));
      ASSERT_EQ(got.members.size(), want.members.size());
      EXPECT_EQ(got.local_observations, want.local_observations);
      for (Index k = 0; k < got.members.size(); ++k) {
        EXPECT_LE(relative_difference(got.members[k].values(),
                                      want.members[k].values()),
                  kBilinearTolerance)
            << "member " << k << " strays from the dense-H̄ reference";
      }
    }
  }
}

TEST_F(Workspace, ScratchViewsGatherInPlaceFromLargerRects) {
  // Members stay on the full grid; the engine gathers each expansion
  // window in place (the P-EnKF / L-EnKF hot path) — the same analysis
  // as the seed running on extracted patches.
  const Scenario sc(13);
  const grid::Rect full = sc.g.bounds();
  std::vector<grid::PatchView> members;
  std::vector<grid::Patch> owning;
  for (const auto& m : sc.ensemble.members) owning.push_back(m.extract(full));
  for (const auto& p : owning) members.push_back(p);

  LocalAnalysisWorkspace ws;
  for (const AnalysisKind kind : {AnalysisKind::kStochasticModifiedCholesky,
                                  AnalysisKind::kDeterministicTransform}) {
    const AnalysisOptions opt = options_for(kind, 1.02);
    const grid::Rect expansion{{2, 14}, {1, 11}};
    const grid::Rect target{{4, 12}, {3, 9}};
    const auto want = reference_local_analysis(sc.patches(expansion), target,
                                               sc.observations, sc.ys, opt);
    const AnalysisView got = local_analysis_scratch(
        members, expansion, target, sc.observations, sc.ys, opt, ws);
    expect_matches(kind, owned(got), want);
  }
}

void expect_packed_matches_seed(const Scenario& sc, grid::Rect rect,
                                const AnalysisOptions& opt,
                                LocalAnalysisWorkspace& ws) {
  const auto background = sc.patches(rect);
  const auto want = reference_local_analysis(background, rect,
                                             sc.observations, sc.ys, opt);

  std::vector<grid::PatchView> views(background.begin(), background.end());
  std::vector<Index> ids(background.size());
  for (Index k = 0; k < ids.size(); ++k) ids[k] = k + 7;
  parcomm::Packer got_pack;
  local_analysis_packed(views, rect, rect, sc.observations, sc.ys, opt, ids,
                        ws, got_pack);
  const parcomm::Payload got = got_pack.take();

  // The wire entry point frames exactly what the scratch one returns.
  const AnalysisView scratch = local_analysis_scratch(
      views, rect, rect, sc.observations, sc.ys, opt, ws);
  parcomm::Packer scratch_pack;
  for (Index k = 0; k < ids.size(); ++k) {
    scratch_pack.put<std::uint64_t>(ids[k]);
    pack_patch(scratch_pack, scratch.members[k]);
  }
  EXPECT_TRUE(got == scratch_pack.take())
      << "wire bytes differ from the scratch result for rect starting at x="
      << rect.x.begin;

  // Same framing as the seed's, carrying the seed's analysis.
  parcomm::Unpacker in(got);
  AnalysisResult decoded;
  decoded.local_observations = want.local_observations;
  for (Index k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(in.get<std::uint64_t>(), ids[k]);
    decoded.members.push_back(unpack_patch(in));
  }
  EXPECT_EQ(in.remaining(), 0u);
  expect_close(decoded, want);
}

TEST_F(Workspace, PackedOutputMatchesSeedFraming) {
  const AnalysisOptions opt =
      options_for(AnalysisKind::kStochasticModifiedCholesky, 1.0);
  LocalAnalysisWorkspace ws;

  // A rect with observations exercises the projection-into-payload path.
  const Scenario sc(14);
  expect_packed_matches_seed(sc, grid::Rect{{0, 12}, {0, 8}}, opt, ws);

  // A station-free rect exercises the skip path: the packed block must be
  // pack_patch of the extracted background.
  const Scenario sparse(2, 8, 1);
  grid::Rect empty_rect{{0, 4}, {0, 4}};
  const auto& comp = sparse.observations.components()[0];
  if (comp.supported_by(empty_rect)) empty_rect = grid::Rect{{8, 12}, {6, 10}};
  ASSERT_FALSE(comp.supported_by(empty_rect));
  expect_packed_matches_seed(sparse, empty_rect, opt, ws);
}

TEST_F(Workspace, ReadAfterResetIsReportedUnderAsan) {
#ifndef SENKF_TEST_ASAN
  GTEST_SKIP() << "arena poisoning is only observable in ASan builds";
#else
  // A result view dies with the workspace's next reset(): the arena
  // poisons the rewound bytes, so reading through the stale view must be
  // reported instead of silently returning recycled values.  A warm-up
  // call first brings the arena to its steady single chunk, so the reset
  // below only rewinds (no chunk is freed) and the report is the
  // poisoning's, not a use-after-free.
  const Scenario sc(15);
  const AnalysisOptions opt =
      options_for(AnalysisKind::kStochasticModifiedCholesky, 1.0);
  const grid::Rect rect{{0, 8}, {0, 8}};
  const auto background = sc.patches(rect);
  LocalAnalysisWorkspace ws;
  std::vector<grid::PatchView> views;
  (void)scratch_on(background, rect, sc, opt, ws, views);
  const AnalysisView result = scratch_on(background, rect, sc, opt, ws, views);
  const double* stale = result.members[0].values().data();
  ws.reset();
  EXPECT_DEATH(
      {
        volatile double value = stale[0];
        (void)value;
      },
      "use-after-poison");
#endif
}

TEST_F(Workspace, ConcurrentThreadWorkspacesMatchSeed) {
  const Scenario sc(16);
  const AnalysisOptions opt =
      options_for(AnalysisKind::kStochasticModifiedCholesky, 1.03);
  const auto rects = varied_rects();

  std::vector<AnalysisResult> want(rects.size());
  for (std::size_t i = 0; i < rects.size(); ++i) {
    want[i] = reference_local_analysis(sc.patches(rects[i]), rects[i],
                                       sc.observations, sc.ys, opt);
  }

  // 4 threads, each running every rect on its own pooled workspace —
  // concurrent leases, concurrent localization-cache lookups.
  constexpr int kThreads = 4;
  std::vector<std::vector<AnalysisResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LocalAnalysisWorkspace& ws = LocalAnalysisWorkspace::for_this_thread();
      std::vector<grid::PatchView> views;
      got[t].resize(rects.size());
      for (std::size_t i = 0; i < rects.size(); ++i) {
        got[t][i] = owned(
            scratch_on(sc.patches(rects[i]), rects[i], sc, opt, ws, views));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < rects.size(); ++i) {
      expect_close(got[t][i], want[i]);
      // Every thread runs the one kernel: bitwise the same analysis.
      expect_identical(got[t][i], got[0][i]);
    }
  }
}

TEST_F(Workspace, BandCoversObservationsWiderThanTheHalo) {
  // With η = 0 the predecessor window stays on one grid row, so L's band
  // is just ξ; a bilinear station couples its two rows, one expansion
  // width apart.  The band must come from the supports too — a width
  // taken from the halo alone would drop HᵀR⁻¹H entries.  The rect is
  // taller than wide, so the band stays row-major.
  const Scenario sc(17, 8, 40, /*bilinear=*/true);
  AnalysisOptions opt =
      options_for(AnalysisKind::kStochasticModifiedCholesky, 1.0);
  opt.halo = grid::Halo{1, 0};
  const grid::Rect rect{{4, 12}, {0, 12}};
  support::Arena arena;
  const BandNumbering numbering = band_numbering_of(sc, rect, opt.halo, arena);
  ASSERT_FALSE(numbering.y_fastest);
  ASSERT_GT(numbering.row_major_bandwidth, rect.x.size());
  const auto background = sc.patches(rect);
  LocalAnalysisWorkspace ws;
  std::vector<grid::PatchView> views;
  expect_close(owned(scratch_on(background, rect, sc, opt, ws, views)),
               reference_local_analysis(background, rect, sc.observations,
                                        sc.ys, opt));
}

TEST_F(Workspace, YFastestBandCoversObservationsWiderThanTheHalo) {
  // The transposed twin: with ξ = 0 a point's only predecessors sit
  // straight below it, one band row away when numbered y fastest, so L's
  // band is η; a bilinear station couples two columns, rect height + 1
  // apart.  On this wide, short rect the supports set the band.
  const Scenario sc(17, 8, 40, /*bilinear=*/true);
  AnalysisOptions opt =
      options_for(AnalysisKind::kStochasticModifiedCholesky, 1.0);
  opt.halo = grid::Halo{0, 1};
  const grid::Rect rect{{0, 16}, {3, 8}};
  support::Arena arena;
  const BandNumbering numbering = band_numbering_of(sc, rect, opt.halo, arena);
  ASSERT_TRUE(numbering.y_fastest);
  ASSERT_EQ(numbering.y_fastest_bandwidth, rect.y.size() + 1);
  const auto background = sc.patches(rect);
  LocalAnalysisWorkspace ws;
  std::vector<grid::PatchView> views;
  expect_close(owned(scratch_on(background, rect, sc, opt, ws, views)),
               reference_local_analysis(background, rect, sc.observations,
                                        sc.ys, opt));
}

}  // namespace
}  // namespace senkf::enkf
