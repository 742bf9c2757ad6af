// Micro-benchmarks of the local analysis kernel (google-benchmark):
// stochastic modified-Cholesky (P-EnKF's scheme, eq. (6)) vs the
// deterministic ensemble transform, across expansion sizes and ensemble
// sizes, plus a halo sweep of the wide, short expansions S-EnKF's layers
// produce, where the stochastic band is numbered along the short axis.
// These are the per-stage compute costs the "c" constant of the cost
// model abstracts.  Every entry runs local_analysis_packed, the
// entry point the parallel engines call: one workspace reused across
// iterations, results projected straight into a pooled wire payload.
// Each entry also reports patches/sec (items_per_second) and a
// steady-state allocs/patch counter read from the analysis.alloc.events
// telemetry delta — the same signal the alloc-budget ctest gate asserts
// is zero, here visible per shape in the nightly JSON.
#include <benchmark/benchmark.h>

#include <numeric>

#include "enkf/local_analysis.hpp"
#include "enkf/patch_wire.hpp"
#include "grid/synthetic.hpp"
#include "linalg/covariance.hpp"
#include "obs/perturbed.hpp"
#include "parcomm/wire.hpp"
#include "telemetry/liveops/profiler.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace senkf;

struct Fixture {
  grid::LatLonGrid mesh;
  grid::SyntheticEnsemble scenario;
  obs::ObservationSet observations;
  linalg::Matrix ys;
  std::vector<grid::PatchView> background;  ///< views of the member fields
  std::vector<grid::Index> member_ids;

  Fixture(grid::Index nx, grid::Index ny, grid::Index members)
      : mesh(nx, ny),
        scenario(make_scenario(mesh, members)),
        observations(make_obs(mesh, scenario.truth)),
        ys(obs::perturbed_observations(observations, members, Rng(3))),
        member_ids(members) {
    for (const auto& member : scenario.members) {
      background.emplace_back(mesh.bounds(), member.data());
    }
    std::iota(member_ids.begin(), member_ids.end(), grid::Index{0});
  }

  static grid::SyntheticEnsemble make_scenario(const grid::LatLonGrid& mesh,
                                               grid::Index members) {
    Rng rng(1);
    return grid::synthetic_ensemble(mesh, members, rng, 0.5);
  }
  static obs::ObservationSet make_obs(const grid::LatLonGrid& mesh,
                                      const grid::Field& truth) {
    Rng rng(2);
    obs::NetworkOptions opt;
    opt.station_count = mesh.size() / 8;
    return obs::random_network(mesh, truth, rng, opt);
  }
};

/// Runs the kernel on the whole nx×ny mesh of `fixture` as one expansion.
void run_kernel(benchmark::State& state, const Fixture& fixture,
                enkf::AnalysisKind kind, grid::Halo halo) {
  const grid::Index members = fixture.member_ids.size();
  enkf::AnalysisOptions options;
  options.kind = kind;
  options.halo = halo;
  const grid::Rect rect = fixture.mesh.bounds();
  const std::size_t bytes =
      members * (sizeof(std::uint64_t) + enkf::packed_patch_size(rect));
  enkf::LocalAnalysisWorkspace workspace;
  const auto analyse = [&] {
    parcomm::Packer out;
    out.reserve(bytes);
    enkf::local_analysis_packed(fixture.background, rect, rect,
                                fixture.observations, fixture.ys, options,
                                fixture.member_ids, workspace, out);
    // Sealing hands the buffer back to the payload pool on drop, as the
    // engines' sends do.
    const parcomm::SharedPayload sealed = out.take_shared();
    benchmark::DoNotOptimize(sealed.bytes().data());
  };
  // One warm call puts arena growth, localization build, payload-pool
  // fill and counter registration outside the measured region; the
  // reset publishes the growth so it stays outside the allocs-per-patch
  // delta too.
  analyse();
  workspace.reset();
  auto& registry = telemetry::Registry::global();
  const auto allocs0 = registry.counter_value("analysis.alloc.events");
  const auto patches0 = registry.counter_value("analysis.patches");
  for (auto _ : state) analyse();
  const double patches =
      static_cast<double>(registry.counter_value("analysis.patches") - patches0);
  const double allocs = static_cast<double>(
      registry.counter_value("analysis.alloc.events") - allocs0);
  state.SetItemsProcessed(state.iterations());  // one patch per iteration
  state.counters["allocs_per_patch"] = patches > 0 ? allocs / patches : 0.0;
  state.SetLabel(std::to_string(rect.count()) + " points");
}

/// Square side×side expansion at halo (2,1); args {side, members}.
void run_square(benchmark::State& state, enkf::AnalysisKind kind) {
  const auto side = static_cast<grid::Index>(state.range(0));
  const auto members = static_cast<grid::Index>(state.range(1));
  run_kernel(state, Fixture(side, side, members), kind, grid::Halo{2, 1});
}

void BM_StochasticModifiedCholesky(benchmark::State& state) {
  run_square(state, enkf::AnalysisKind::kStochasticModifiedCholesky);
}
BENCHMARK(BM_StochasticModifiedCholesky)
    ->Args({8, 10})
    ->Args({12, 10})
    ->Args({16, 10})
    ->Args({12, 40});

// Halo sweep over layer expansions; args {width, height, halo ξ = η,
// members}.  Layers make each expansion wide and short: numbench
// stoch-warm's is 74×11 at halo (1,1), and a 480×240 grid on 4×1
// sub-domains in 16 layers gives 122×17.  Row-major numbering would tie
// the band to the width; the kernel numbers these y fastest.  The band
// counters are the half-bandwidths the kernel measures under each
// numbering (b_row_major, b_y_fastest) and the one it solves with (b).
void BM_StochasticLayerExpansion(benchmark::State& state) {
  const auto width = static_cast<grid::Index>(state.range(0));
  const auto height = static_cast<grid::Index>(state.range(1));
  const auto reach = static_cast<grid::Index>(state.range(2));
  const auto members = static_cast<grid::Index>(state.range(3));
  const grid::Halo halo{reach, reach};
  const Fixture fixture(width, height, members);

  const grid::Rect rect = fixture.mesh.bounds();
  linalg::Matrix xb(rect.count(), members);
  for (grid::Index k = 0; k < members; ++k) {
    const auto values = fixture.background[k].values();
    for (grid::Index i = 0; i < rect.count(); ++i) xb(i, k) = values[i];
  }
  support::Arena arena;
  enkf::ExpansionPredecessorOracle oracle(rect, halo);
  const linalg::ModifiedCholesky binv =
      linalg::estimate_inverse_covariance_scratch(
          linalg::ensemble_anomalies(xb), oracle, 1e-6, arena);
  const obs::LocalObservations local(fixture.observations, rect);
  const enkf::BandNumbering numbering =
      enkf::choose_band_numbering(rect, binv.l, local, arena);

  run_kernel(state, fixture, enkf::AnalysisKind::kStochasticModifiedCholesky,
             halo);
  state.counters["b_row_major"] =
      static_cast<double>(numbering.row_major_bandwidth);
  state.counters["b_y_fastest"] =
      static_cast<double>(numbering.y_fastest_bandwidth);
  state.counters["b"] = static_cast<double>(numbering.bandwidth());
}
BENCHMARK(BM_StochasticLayerExpansion)
    ->Args({74, 11, 1, 40})
    ->Args({122, 17, 1, 40})
    ->Args({122, 17, 2, 40})
    ->Args({122, 17, 3, 40});

void BM_DeterministicTransform(benchmark::State& state) {
  run_square(state, enkf::AnalysisKind::kDeterministicTransform);
}
BENCHMARK(BM_DeterministicTransform)
    ->Args({8, 10})
    ->Args({12, 10})
    ->Args({16, 10})
    ->Args({12, 40});

// Profiler overhead gate (DESIGN.md §16): the same analysis kernel with
// the sampling profiler off vs running at its default 97 Hz.  The two
// entries share a shape so compare_bench.py can gate BM_ProfileOn
// against BM_ProfileOff's committed baseline — the acceptance bound is
// <= 2% overhead, dominated by the per-span phase-stack push/pop the
// profile hook enables.
void run_profile_overhead(benchmark::State& state, bool profiled) {
  telemetry::liveops::stop_profiler();
  if (profiled) {
    telemetry::liveops::start_profiler(
        telemetry::liveops::kDefaultProfileHz, /*wall=*/false);
  }
  {
    // One span held across the measured region, as in the engines: the
    // SIGPROF handler attributes its samples here, so the On entry pays
    // the full commit path, not just the timer delivery.
    const telemetry::TraceSpan span(telemetry::Category::kUpdate,
                                    "micro_profile_bench");
    run_square(state, enkf::AnalysisKind::kDeterministicTransform);
  }
  if (profiled) {
    state.counters["samples"] = static_cast<double>(
        telemetry::liveops::profiler_stats().samples);
    telemetry::liveops::stop_profiler();
  }
}

void BM_ProfileOff(benchmark::State& state) {
  run_profile_overhead(state, false);
}
BENCHMARK(BM_ProfileOff)->Args({12, 10});

void BM_ProfileOn(benchmark::State& state) {
  run_profile_overhead(state, true);
}
BENCHMARK(BM_ProfileOn)->Args({12, 10});

}  // namespace

BENCHMARK_MAIN();
