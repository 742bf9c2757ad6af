// Live observability walkthrough (DESIGN.md §11): run S-EnKF with an
// injected straggler so rank 0's in-band monitor WARNs in real time,
// then print the cross-rank aggregation — per-rank phase table, read
// skew, helper-thread backlog — and the measured-vs-model drift table.
//
// The same data lands on disk with zero code changes on any binary:
//   SENKF_REPORT=report.json ./monitored_run   # machine-readable report
//   SENKF_SKEW_WARN=4        ./monitored_run   # raise the WARN threshold
//   SENKF_SKEW_WARN=off      ./monitored_run   # silence the monitor
//   SENKF_FAULTS="straggler=0:0.03" ./monitored_run   # pick the delay
//   SENKF_FAULTS="seed=1,transient=0.05,burst=2" ./monitored_run  # retries
//   SENKF_SAMPLE_MS=5        ./monitored_run   # continuous sampling
//   SENKF_TRACE=trace.json   ./monitored_run   # flow-event trace export
//   SENKF_HTTP=0 ./monitored_run hold=25       # live /metrics, /health
//
// `hold=<seconds>` keeps the process — and the SENKF_HTTP endpoint —
// alive that long after the run, so an outside probe can scrape it; the
// "serving on 127.0.0.1:<port>" line on stderr says where.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <thread>

#include "enkf/faulty_store.hpp"
#include "enkf/senkf.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"
#include "support/config.hpp"
#include "telemetry/liveops/liveops.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/shutdown.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"
#include "tuning/drift.hpp"

int main(int argc, char** argv) {
  using namespace senkf;
  const Config args = Config::from_args(argc, argv);
  const double hold_s = args.get_double("hold", 0.0);

  const grid::LatLonGrid g{48, 24};
  constexpr grid::Index kMembers = 8;
  senkf::Rng rng(51);
  const auto scenario = grid::synthetic_ensemble(g, kMembers, rng, 0.5);
  senkf::Rng obs_rng(52);
  obs::NetworkOptions network;
  network.station_count = 80;
  network.error_std = 0.05;
  const auto observations =
      obs::random_network(g, scenario.truth, obs_rng, network);
  const auto ys =
      obs::perturbed_observations(observations, kMembers, senkf::Rng(53));
  const enkf::MemoryEnsembleStore store(g, scenario.members);

  enkf::SenkfConfig config;
  config.n_sdx = 4;
  config.n_sdy = 2;
  config.layers = 3;
  config.n_cg = 2;
  config.analysis.halo = grid::Halo{2, 1};

  // Default demo: I/O rank ordinal 0 pays 20 ms per bar read, so every
  // stage's read skew trips the monitor while the run executes — watch
  // for "read straggler" WARN lines interleaved with this output.
  // SENKF_FAULTS (when set) overrides the demo plan.
  std::optional<pfs::FaultPlan> faults = pfs::fault_plan_from_env();
  if (!faults.has_value()) faults = pfs::parse_fault_plan("straggler=0:0.02");
  std::cout << "Injecting faults: " << pfs::to_spec(*faults) << "\n";
  const enkf::FaultyEnsembleStore faulty(store, *faults);

  // Arm tracing so the run computes its critical-path attribution even
  // without SENKF_TRACE (the export still needs the env var).
  telemetry::set_tracing_enabled(true);

  enkf::SenkfStats stats;
  const auto analysis = enkf::senkf(faulty, observations, ys, config, &stats);
  std::cout << "\nAnalysis members: " << analysis.size() << "\n\n";

  // Per-rank phase table straight from the aggregation tree.
  std::printf("%5s %5s %5s %9s %9s %9s %9s %9s %8s\n", "rank", "io", "grp",
              "read_s", "obtain_s", "send_s", "wait_s", "update_s", "msgs");
  for (const auto& r : stats.ranks) {
    std::printf("%5d %5d %5d %9.4f %9.4f %9.4f %9.4f %9.4f %8llu\n", r.rank,
                static_cast<int>(r.is_io), r.group, r.read_s, r.obtain_s,
                r.send_s, r.wait_s, r.update_s,
                static_cast<unsigned long long>(r.messages));
  }

  std::cout << "\nStraggler WARNs raised: " << stats.straggler_warns
            << "\nWhole-run read skew (slowest/mean): " << stats.read_skew
            << "\n";

  // Drift table: measured per-rank per-stage phase seconds vs the
  // uncalibrated cost model (eqs. (7)-(9)); large values are expected —
  // the gap *is* the recalibration signal an auto-tuning loop would use.
  const telemetry::RunReport report = telemetry::run_report_copy();
  std::cout << "\nModel drift (measured vs eqs. (7)-(9), relative):\n";
  for (const auto& [phase, rel] : report.drift) {
    const tuning::DriftTrend trend = tuning::drift_trend(phase);
    std::printf("  %-5s %+9.3f   trend: %zu pts, mean %+.1f, slope %+.2f/s\n",
                phase.c_str(), rel, trend.points, trend.mean,
                trend.slope_per_s);
  }

  // Critical-path attribution (DESIGN.md §13): where this cycle's wall
  // clock actually went, walked backward through waits and message edges.
  std::cout << "\nCritical path per cycle:\n";
  for (const auto& cp : telemetry::critical_paths_copy()) {
    std::printf(
        "  cycle %llu: wall %.4fs = compute %.4f + disk %.4f + "
        "comm-blocked %.4f + other %.4f + untracked %.4f  (%llu hops, "
        "%llu missing edges)\n",
        static_cast<unsigned long long>(cp.cycle), cp.wall_s, cp.compute_s,
        cp.disk_s, cp.comm_blocked_s, cp.other_s, cp.untracked_s,
        static_cast<unsigned long long>(cp.message_hops),
        static_cast<unsigned long long>(cp.missing_edges));
    for (const auto& c : cp.top) {
      std::printf("    rank %2d  %-16s %9.4fs\n", c.rank, c.phase.c_str(),
                  c.seconds);
    }
  }

  std::cout << "\nMonitor gauges:\n  senkf.skew.stage_read = "
            << telemetry::Registry::global().gauge_value("senkf.skew.stage_read")
            << " (milli-ratio)\n  senkf.straggler.last_rank = "
            << telemetry::Registry::global().gauge_value(
                   "senkf.straggler.last_rank")
            << "\n";
  if (telemetry::report_export_path().empty()) {
    std::cout << "\nSet SENKF_REPORT=report.json to export all of the above "
                 "as versioned JSON.\n";
  }

  if (hold_s > 0.0 && telemetry::liveops::liveops_http_running()) {
    std::cout << "\nHolding " << hold_s << " s on port "
              << telemetry::liveops::liveops_port() << "\n"
              << std::flush;
    std::this_thread::sleep_for(std::chrono::duration<double>(hold_s));
  }
  // Ordered teardown: endpoint and monitors stop before the atexit
  // exporters write the trace and report.
  telemetry::shutdown();
  return 0;
}
