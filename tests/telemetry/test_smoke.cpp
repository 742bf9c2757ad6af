// telemetry-smoke (ISSUE 2, satellite 5): run a small S-EnKF assimilation
// with tracing armed and assert the pipeline emitted at least one span in
// every plane — read / send / wait / update — per stage, that the export
// is valid Chrome trace JSON, and that the SenkfStats facade agrees with
// the span record it is derived from.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "enkf/senkf.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "test_json.hpp"

namespace senkf::enkf {
namespace {

struct TracedRun {
  grid::LatLonGrid g{24, 12};
  std::vector<telemetry::TraceEvent> events;
  SenkfStats stats;
  SenkfConfig config;

  TracedRun() {
    senkf::Rng rng(11);
    auto scenario = grid::synthetic_ensemble(g, 6, rng, 0.5);
    senkf::Rng obs_rng(12);
    obs::NetworkOptions opt;
    opt.station_count = 50;
    opt.error_std = 0.05;
    const auto observations =
        obs::random_network(g, scenario.truth, obs_rng, opt);
    const auto ys =
        obs::perturbed_observations(observations, 6, senkf::Rng(13));
    const MemoryEnsembleStore store(g, scenario.members);

    config.n_sdx = 4;
    config.n_sdy = 2;
    config.layers = 3;
    config.n_cg = 2;
    config.analysis.halo = grid::Halo{2, 1};

    telemetry::set_tracing_enabled(true);
    telemetry::clear_events();
    (void)senkf(store, observations, ys, config, &stats);
    events = telemetry::collect_events();
    telemetry::set_tracing_enabled(false);
  }
};

const TracedRun& shared_run() {
  static const TracedRun run;  // one pipeline run shared by all assertions
  return run;
}

std::size_t count_category(const std::vector<telemetry::TraceEvent>& events,
                           telemetry::Category category) {
  std::size_t n = 0;
  for (const auto& event : events) {
    if (event.category == category) ++n;
  }
  return n;
}

TEST(TelemetrySmoke, EveryPlaneEmitsSpans) {
  const auto& run = shared_run();
  using telemetry::Category;
  EXPECT_GE(count_category(run.events, Category::kRead), 1u);
  EXPECT_GE(count_category(run.events, Category::kSend), 1u);
  EXPECT_GE(count_category(run.events, Category::kRecv), 1u);
  EXPECT_GE(count_category(run.events, Category::kWait), 1u);
  EXPECT_GE(count_category(run.events, Category::kUpdate), 1u);
}

TEST(TelemetrySmoke, SpansCoverEveryStageAndEveryRank) {
  const auto& run = shared_run();
  // Per-stage coverage: read (I/O ranks), wait + update (comp ranks).
  for (telemetry::Category category :
       {telemetry::Category::kRead, telemetry::Category::kWait,
        telemetry::Category::kUpdate}) {
    std::set<std::int32_t> stages;
    for (const auto& event : run.events) {
      if (event.category == category && event.stage >= 0) {
        stages.insert(event.stage);
      }
    }
    EXPECT_EQ(stages.size(), static_cast<std::size_t>(run.config.layers))
        << "category " << telemetry::category_name(category);
  }
  // Rank attribution: every rank of the virtual cluster shows up.
  std::set<std::int32_t> ranks;
  for (const auto& event : run.events) {
    if (event.rank >= 0) ranks.insert(event.rank);
  }
  EXPECT_EQ(ranks.size(),
            static_cast<std::size_t>(run.config.total_ranks()));
}

TEST(TelemetrySmoke, StatsFacadeAgreesWithSpans) {
  const auto& run = shared_run();
  // messages = comp_ranks × layers × n_cg (each I/O group coalesces its
  // members' blocks into one message per destination and stage), and the
  // update phase did real work; both derive from the same counters the
  // spans mirror.
  EXPECT_EQ(run.stats.messages, 8u * 3u * 2u);
  EXPECT_GT(run.stats.comp_update_seconds, 0.0);
  double update_span_seconds = 0.0;
  for (const auto& event : run.events) {
    if (event.category == telemetry::Category::kUpdate) {
      update_span_seconds +=
          static_cast<double>(event.t_end_ns - event.t_start_ns) / 1e9;
    }
  }
  // Same intervals measured twice (CountedSpan feeds both); allow slack
  // for the facade covering whole-process deltas.
  EXPECT_NEAR(run.stats.comp_update_seconds, update_span_seconds,
              0.5 * update_span_seconds + 1e-3);
}

TEST(TelemetrySmoke, ExportIsLoadableChromeTrace) {
  const auto& run = shared_run();
  ASSERT_FALSE(run.events.empty());
  std::ostringstream out;
  telemetry::write_chrome_trace(out);
  const testjson::Value root = testjson::parse(out.str());

  const auto& trace_events = root.at("traceEvents").as_array();
  std::size_t complete = 0, metadata = 0, flows = 0;
  std::set<double> pids;
  for (const auto& event : trace_events) {
    const std::string ph = event.at("ph").as_string();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(event.at("name").as_string(), "process_name");
      continue;
    }
    if (ph == "s" || ph == "t" || ph == "f") {
      ++flows;
      EXPECT_EQ(event.at("cat").as_string(), "flow");
      EXPECT_GT(event.at("id").as_number(), 0.0);
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_FALSE(event.at("name").as_string().empty());
    EXPECT_FALSE(event.at("cat").as_string().empty());
    EXPECT_GE(event.at("dur").as_number(), 0.0);
    pids.insert(event.at("pid").as_number());
  }
  EXPECT_EQ(complete, run.events.size());
  EXPECT_GE(metadata, 1u);
  // The pipeline sends traced messages, so cross-rank flow arrows exist.
  EXPECT_GE(flows, 1u);
  // One Chrome process row per rank (plus possibly the unattributed row).
  EXPECT_GE(pids.size(),
            static_cast<std::size_t>(run.config.total_ranks()));
}

TEST(TelemetrySmoke, FileExportRoundTrips) {
  (void)shared_run();
  // Per-process path: the kernel-variant registrations run this same
  // binary in parallel, and a shared path makes one copy read another's
  // half-written file.
  const std::string path = ::testing::TempDir() + "senkf_smoke_trace." +
                           std::to_string(::getpid()) + ".json";
  telemetry::write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const testjson::Value root = testjson::parse(buffer.str());
  EXPECT_FALSE(root.at("traceEvents").as_array().empty());
  std::remove(path.c_str());
}

TEST(TelemetrySmoke, MetricsRegistrySawThePipeline) {
  (void)shared_run();
  auto& registry = telemetry::Registry::global();
  EXPECT_GT(registry.counter_value("senkf.messages"), 0u);
  EXPECT_GT(registry.counter_value("senkf.comp_update_ns"), 0u);
  EXPECT_GT(registry.counter_value("parcomm.messages"), 0u);
  EXPECT_GT(registry.counter_value("store.reads"), 0u);
  // Kernel dispatch ran under exactly one SENKF_KERNEL selection, counted
  // once per process, and published the active vector width as a gauge.
  EXPECT_EQ(registry.counter_value("kernels.dispatch.scalar") +
                registry.counter_value("kernels.dispatch.avx2") +
                registry.counter_value("kernels.dispatch.avx512") +
                registry.counter_value("kernels.dispatch.neon"),
            1u);
  EXPECT_GT(registry.gauge_value("kernels.active"), 0);
  const std::string snapshot = registry.snapshot();
  EXPECT_NE(snapshot.find("senkf.io_read_ns"), std::string::npos);
}

}  // namespace
}  // namespace senkf::enkf
