// Numeric-plane benchmark: times the serial reference, L-EnKF,
// P-EnKF and S-EnKF end to end on one workload, and splits their time
// into the library's layers from outside (numbench/README.md).
//
//   numbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir> [--trace-out <file>]
//
// Every engine call is checked bit for bit against serial_enkf on the
// same inputs; a call that throws or differs counts as failed.  The last
// line of stdout is one JSON record of raw samples that numbench/run.py
// reduces to the benchmark's metrics.
//
// --trace 0 measures wall times with nothing wrapped around the engines.
// --trace 1 runs the obs and kernel probes, then alternates untraced and
// traced engine calls: a traced call reads through TimedStore, records
// this file's spans and takes registry-counter deltas around the call.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "enkf/analysis_workspace.hpp"
#include "enkf/diagnostics.hpp"
#include "enkf/file_store.hpp"
#include "enkf/lenkf.hpp"
#include "enkf/penkf.hpp"
#include "enkf/senkf.hpp"
#include "linalg/kernels/dispatch.hpp"
#include "obs/local_obs_cache.hpp"
#include "obs/perturbed.hpp"
#include "telemetry/metrics.hpp"

extern char** environ;

namespace {

using namespace senkf;
using grid::Index;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads.  All decompose 2×1 sub-domains with one analysis thread
// per rank and two S-EnKF concurrent groups, so no engine keeps more than
// four cores busy (serial 1, L-EnKF 2, P-EnKF 2, S-EnKF 2 computation plus
// 2 I/O ranks); the default pool width would oversubscribe a 4-core host.

constexpr Index kSdx = 2;
constexpr Index kSdy = 1;
constexpr Index kConcurrentGroups = 2;
constexpr Index kAnalysisThreads = 1;
constexpr int kSetupRepetitions = 3;
constexpr int kMinRepetitions = 3;

struct Workload {
  const char* name;
  const char* why;
  Index nx;
  Index ny;
  Index members;
  Index stations;
  Index layers;
  grid::Halo halo;
  enkf::AnalysisKind kind;
  bool files;      ///< ensemble on FileEnsembleStore instead of memory
  bool fresh_obs;  ///< a new observation network for every engine call
};

const Workload kWorkloads[] = {
    {"stoch-warm",
     "stochastic modified-Cholesky analysis on the memory store, warm "
     "fixed network: the dense n^3 kernel is nearly all the time, reads "
     "and comm are not",
     144, 72, 40, 900, 8, grid::Halo{1, 1},
     enkf::AnalysisKind::kStochasticModifiedCholesky, false, false},
    {"det-files-warm",
     "deterministic transform on FileEnsembleStore, warm fixed network: "
     "reads, scatter, gather and a cheap kernel share the time, so read "
     "patterns show",
     192, 96, 64, 3000, 16, grid::Halo{2, 2},
     enkf::AnalysisKind::kDeterministicTransform, true, false},
    {"det-fresh-obs",
     "deterministic transform on the memory store with a fresh network "
     "every call, as in real cycles: cold observation localization "
     "dominates",
     192, 96, 64, 3000, 16, grid::Halo{2, 2},
     enkf::AnalysisKind::kDeterministicTransform, false, true},
};

enkf::EnkfRunConfig run_config(const Workload& w) {
  enkf::EnkfRunConfig config;
  config.n_sdx = kSdx;
  config.n_sdy = kSdy;
  config.layers = w.layers;
  config.analysis_threads = kAnalysisThreads;
  config.analysis.kind = w.kind;
  config.analysis.halo = w.halo;
  return config;
}

enkf::SenkfConfig senkf_config(const Workload& w) {
  const enkf::EnkfRunConfig run = run_config(w);
  enkf::SenkfConfig config;
  config.n_sdx = run.n_sdx;
  config.n_sdy = run.n_sdy;
  config.layers = run.layers;
  config.n_cg = kConcurrentGroups;
  config.analysis_threads = run.analysis_threads;
  config.analysis = run.analysis;
  return config;
}

// ---------------------------------------------------------------------------
// The benchmark's own spans: kept in memory, written as a Chrome trace at
// the end of a traced run.

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  int thread = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on); }
  std::uint64_t next_id() { return next_id_.fetch_add(1); }
  void record(SpanRecord span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }
  /// The engine-call span store reads issued on rank threads nest under.
  std::atomic<std::uint64_t> engine_span{0};

  void write_chrome_trace(const std::filesystem::path& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const SpanRecord& s : spans_) t0 = std::min(t0, s.start_ns);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord& s : spans_) {
      out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
          << ",\"ts\":" << std::fixed << std::setprecision(3)
          << static_cast<double>(s.start_ns - t0) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << "}}";
      first = false;
    }
    out << "\n]}\n";
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ == nullptr) return;
    record_.name = name;
    record_.id = tracer_->next_id();
    record_.parent = parent;
    record_.thread = thread_index();
    record_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    record_.end_ns = now_ns();
    tracer_->record(std::move(record_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

// ---------------------------------------------------------------------------
// Timing EnsembleStore decorator, modelled on FaultyEnsembleStore: engine
// rank threads call it, so all four engines report reads the same way.
// Segment accounting stays on the wrapped store.

class TimedStore final : public enkf::EnsembleStore {
 public:
  enum Access { kLoadMember, kReadBlock, kReadBar, kAccessKinds };
  static constexpr const char* kAccessNames[kAccessKinds] = {
      "load_member", "read_block", "read_bar"};

  struct Totals {
    std::uint64_t calls[kAccessKinds] = {};
    std::uint64_t bytes[kAccessKinds] = {};
    std::uint64_t busy_ns[kAccessKinds] = {};
  };

  /// `base` and `tracer` must outlive the decorator.
  TimedStore(const EnsembleStore& base, Tracer& tracer)
      : base_(base), tracer_(tracer) {}

  const grid::LatLonGrid& grid() const override { return base_.grid(); }
  Index members() const override { return base_.members(); }

  grid::Field load_member(Index k) const override {
    return timed(kLoadMember, [&] { return base_.load_member(k); });
  }
  grid::Patch read_block(Index k, grid::Rect rect) const override {
    return timed(kReadBlock, [&] { return base_.read_block(k, rect); });
  }
  grid::Patch read_bar(Index k, grid::IndexRange rows) const override {
    return timed(kReadBar, [&] { return base_.read_bar(k, rows); });
  }

  Totals totals() const {
    Totals t;
    for (int a = 0; a < kAccessKinds; ++a) {
      t.calls[a] = tally_[a].calls.load();
      t.bytes[a] = tally_[a].bytes.load();
      t.busy_ns[a] = tally_[a].busy_ns.load();
    }
    return t;
  }

 private:
  struct Tally {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  template <typename Read>
  auto timed(Access access, Read&& read) const -> decltype(read()) {
    const ScopedSpan span(tracer_, kSpanNames[access],
                          tracer_.engine_span.load());
    const std::uint64_t t0 = now_ns();
    auto out = read();
    Tally& tally = tally_[access];
    tally.busy_ns.fetch_add(now_ns() - t0);
    tally.calls.fetch_add(1);
    tally.bytes.fetch_add(out.size() * sizeof(double));
    return out;
  }

  static constexpr const char* kSpanNames[kAccessKinds] = {
      "enkf.store.load_member", "enkf.store.read_block",
      "enkf.store.read_bar"};

  const EnsembleStore& base_;
  Tracer& tracer_;
  mutable Tally tally_[kAccessKinds];
};

// ---------------------------------------------------------------------------
// Registry counters read around each traced engine call.

const char* const kRegistryCounters[] = {
    "parcomm.messages",           "parcomm.bytes",
    "parcomm.payload_copies",     "parcomm.recv_wait_ns",
    "parcomm.pool.hit",           "parcomm.pool.miss",
    "analysis.localization.hits", "analysis.localization.misses",
    "analysis.patches",           "store.reads",
    "store.segments",             "store.file_read_ns",
    "penkf.read_ns",              "penkf.update_ns",
    "lenkf.read_ns",              "lenkf.send_ns",
    "lenkf.update_ns",
};

using Counters = std::map<std::string, double>;

Counters read_counters() {
  const auto& registry = telemetry::Registry::global();
  Counters out;
  for (const char* name : kRegistryCounters) {
    out[name] = static_cast<double>(registry.counter_value(name));
  }
  return out;
}

Counters delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) out[name] = value - before.at(name);
  return out;
}

// ---------------------------------------------------------------------------
// Scenario: truth, background ensemble, store and observation network.

struct Network {
  std::unique_ptr<obs::ObservationSet> observations;
  linalg::Matrix perturbed;
};

Network draw_network(const Workload& w, const grid::LatLonGrid& mesh,
                     const grid::Field& truth, std::uint64_t seed,
                     std::uint64_t draw) {
  Rng rng(seed * 1000003u + 7919u * (draw + 1));
  obs::NetworkOptions options;
  options.station_count = w.stations;
  Network net;
  net.observations = std::make_unique<obs::ObservationSet>(
      obs::random_network(mesh, truth, rng, options));
  net.perturbed = obs::perturbed_observations(
      *net.observations, w.members,
      Rng(seed * 1000003u + 104729u * (draw + 1)));
  return net;
}

struct Scenario {
  grid::LatLonGrid mesh;
  grid::SyntheticEnsemble ensemble;
  std::unique_ptr<enkf::EnsembleStore> store;
  Network network;  ///< the fixed network (the first draw on fresh-obs)
};

Scenario make_scenario(const Workload& w, std::uint64_t seed,
                       const std::filesystem::path& ensemble_dir) {
  const grid::LatLonGrid mesh(w.nx, w.ny);
  Rng rng(seed);
  Scenario s{mesh, grid::synthetic_ensemble(mesh, w.members, rng), nullptr,
             {}};
  if (w.files) {
    s.store = std::make_unique<enkf::FileEnsembleStore>(
        enkf::write_ensemble(s.mesh, s.ensemble.members, ensemble_dir));
  } else {
    s.store = std::make_unique<enkf::MemoryEnsembleStore>(
        s.mesh, s.ensemble.members);
  }
  s.network = draw_network(w, s.mesh, s.ensemble.truth, seed, 0);
  return s;
}

// ---------------------------------------------------------------------------
// Engine calls.

enum Engine { kSerial, kLenkf, kPenkf, kSenkf, kEngines };
const char* const kEngineNames[kEngines] = {"serial", "lenkf", "penkf",
                                            "senkf"};

struct Call {
  std::vector<grid::Field> analysis;
  double wall_s = 0.0;
  enkf::SenkfStats stats;
  std::string error;  ///< non-empty when the call threw
};

Call call_engine(Engine engine, const enkf::EnsembleStore& store,
                 const Network& net, const Workload& w) {
  Call call;
  const auto t0 = Clock::now();
  try {
    switch (engine) {
      case kSerial:
        call.analysis = enkf::serial_enkf(store, *net.observations,
                                          net.perturbed, run_config(w));
        break;
      case kLenkf:
        call.analysis = enkf::lenkf(store, *net.observations, net.perturbed,
                                    run_config(w));
        break;
      case kPenkf:
        call.analysis = enkf::penkf(store, *net.observations, net.perturbed,
                                    run_config(w));
        break;
      case kSenkf:
        call.analysis = enkf::senkf(store, *net.observations, net.perturbed,
                                    senkf_config(w), &call.stats);
        break;
      default:
        break;
    }
  } catch (const std::exception& e) {
    call.error = e.what();
  }
  call.wall_s = seconds_between(t0, Clock::now());
  return call;
}

/// Bit-identity against the serial reference; returns "" when identical.
std::string disagreement(const Call& call,
                         const std::vector<grid::Field>& gold) {
  if (!call.error.empty()) return "threw: " + call.error;
  if (call.analysis.size() != gold.size()) return "member count differs";
  try {
    const double diff = enkf::max_ensemble_difference(gold, call.analysis);
    if (diff != 0.0) {
      std::ostringstream msg;
      msg << "max |difference| " << diff << " against serial_enkf";
      return msg.str();
    }
  } catch (const std::exception& e) {
    return std::string("compare threw: ") + e.what();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Probes: the obs and kernel layers called directly on the workload's
// decomposition.

struct Pair {
  grid::Rect expansion;
  grid::Rect target;
};

std::vector<Pair> analysis_pairs(const Workload& w,
                                 const grid::LatLonGrid& mesh) {
  const grid::Decomposition decomposition(mesh, kSdx, kSdy, w.halo);
  std::vector<Pair> pairs;
  for (const grid::SubdomainId id : decomposition.all_subdomains()) {
    for (Index l = 0; l < w.layers; ++l) {
      pairs.push_back({decomposition.layer_expansion(id, l, w.layers),
                       decomposition.layer(id, l, w.layers)});
    }
  }
  return pairs;
}

/// Computed floating-point operations of one local analysis, dominant
/// terms only, from n̄ (expansion points), m̄ (local observations), N.
double analysis_flops(const Workload& w, double n, double m, double members) {
  if (m == 0.0) return 0.0;  // skipped: the background is the analysis
  const double N = members;
  if (w.kind == enkf::AnalysisKind::kStochasticModifiedCholesky) {
    // Regression per row over ≤ p predecessors, B̂⁻¹ = LᵀD⁻¹L formed
    // densely, Cholesky of the system, N-column solve, H X̄ᵇ and Hᵀ R⁻¹ D.
    const double p = static_cast<double>(w.halo.eta * (2 * w.halo.xi + 1) +
                                         w.halo.xi);
    return n * (p * p * N + p * p * p / 3.0) + 2.0 * n * n * n +
           n * n * n / 3.0 + 2.0 * n * n * N + 4.0 * m * n * N;
  }
  // Ỹ = H U, Ỹᵀ R⁻¹ Ỹ, symmetric eigen (tred2 + tql2 with vectors),
  // P̃ and P̃^{1/2} from the eigenpairs, Xᵃ = x̄ + U W.
  return 2.0 * m * n * N + 2.0 * m * N * N + 9.0 * N * N * N +
         4.0 * N * N * N + 2.0 * n * N * N;
}

struct ObsProbe {
  double cold_s = 0.0;  ///< one cold pass over every expansion rect
  double warm_s = 0.0;  ///< one warm pass
  double bytes = 0.0;   ///< computed H̄ and HᵀR⁻¹H bytes, all entries
  double entries = 0.0;
};

ObsProbe probe_obs(const std::vector<Pair>& pairs, const Network& net,
                   Tracer& tracer, int passes) {
  std::vector<double> cold, warm;
  ObsProbe probe;
  for (int pass = 0; pass < passes; ++pass) {
    obs::clear_localization_cache();
    double cold_pass = 0.0, warm_pass = 0.0, bytes = 0.0;
    for (const Pair& p : pairs) {
      const auto t0 = Clock::now();
      std::shared_ptr<const obs::LocalObservations> local;
      {
        const ScopedSpan span(tracer, "obs.localized.cold", 0);
        local = obs::localized(*net.observations, p.expansion);
      }
      cold_pass += seconds_between(t0, Clock::now());
      const double n = static_cast<double>(p.expansion.count());
      const double m = static_cast<double>(local->size());
      bytes += (m * n + (local->empty() ? 0.0 : n * n)) * sizeof(double);
    }
    for (const Pair& p : pairs) {
      const auto t0 = Clock::now();
      const ScopedSpan span(tracer, "obs.localized.warm", 0);
      (void)obs::localized(*net.observations, p.expansion);
      warm_pass += seconds_between(t0, Clock::now());
    }
    cold.push_back(cold_pass);
    warm.push_back(warm_pass);
    probe.bytes = bytes;
  }
  probe.cold_s = median(cold);
  probe.warm_s = median(warm);
  probe.entries = static_cast<double>(pairs.size());
  return probe;
}

struct KernelProbe {
  double patch_s = 0.0;  ///< median time of one patch
  double pass_s = 0.0;   ///< sum over pairs of per-pair medians
  double gflop = 0.0;    ///< computed, one pass over every pair
  double allocs = 0.0;   ///< analysis.alloc.events over the timed passes
};

KernelProbe probe_kernel(const Workload& w, const std::vector<Pair>& pairs,
                         const Scenario& s, const Network& net, Tracer& tracer,
                         int passes) {
  const enkf::AnalysisOptions options = run_config(w).analysis;
  enkf::LocalAnalysisWorkspace workspace;
  std::vector<std::vector<grid::Patch>> backgrounds;
  std::vector<std::vector<grid::PatchView>> views;
  for (const Pair& p : pairs) {
    std::vector<grid::Patch> members;
    for (const grid::Field& member : s.ensemble.members) {
      members.push_back(member.extract(p.expansion));
    }
    backgrounds.push_back(std::move(members));
    views.emplace_back(backgrounds.back().begin(), backgrounds.back().end());
  }
  const auto run_pair = [&](std::size_t i) {
    const enkf::AnalysisView view = enkf::local_analysis_scratch(
        views[i], pairs[i].expansion, pairs[i].target, *net.observations,
        net.perturbed, options, workspace);
    return view.local_observations;
  };
  KernelProbe probe;
  for (std::size_t i = 0; i < pairs.size(); ++i) {  // warm arena and cache
    const double m = static_cast<double>(run_pair(i));
    const double n = static_cast<double>(pairs[i].expansion.count());
    probe.gflop +=
        analysis_flops(w, n, m, static_cast<double>(w.members)) / 1e9;
  }
  auto& registry = telemetry::Registry::global();
  const auto allocs0 = registry.counter_value("analysis.alloc.events");
  std::vector<std::vector<double>> per_pair(pairs.size());
  std::vector<double> all;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto t0 = Clock::now();
      {
        const ScopedSpan span(tracer, "enkf.local_analysis_scratch", 0);
        run_pair(i);
      }
      const double t = seconds_between(t0, Clock::now());
      per_pair[i].push_back(t);
      all.push_back(t);
    }
  }
  probe.allocs = static_cast<double>(
      registry.counter_value("analysis.alloc.events") - allocs0);
  probe.patch_s = median(all);
  for (const auto& times : per_pair) probe.pass_s += median(times);
  return probe;
}

// ---------------------------------------------------------------------------
// Layer attribution of one traced engine call.  Phase totals summed over
// ranks or pool threads are divided by the lanes that ran them at once, so
// each is in wall-clock seconds and the attributed parts plus
// `<engine>.unattributed_s` equal the call's wall time.

using Layers = std::map<std::string, double>;

void attribute(Engine engine, const Call& call, const Counters& d,
               const TimedStore::Totals& reads, const KernelProbe& kernel,
               Layers& out) {
  const double ns = 1e-9;
  const double ranks = static_cast<double>(kSdx * kSdy);
  const double threads = static_cast<double>(kAnalysisThreads);
  const std::string e = kEngineNames[engine];
  double attributed = 0.0;
  const auto put = [&](const std::string& name, double value, bool sums) {
    out[e + "." + name] = value;
    if (sums) attributed += value;
  };
  switch (engine) {
    case kSerial: {
      double read_ns = 0.0;
      for (int a = 0; a < TimedStore::kAccessKinds; ++a) {
        read_ns += static_cast<double>(reads.busy_ns[a]);
      }
      put("read_s", read_ns * ns, true);
      // The serial kernel runs on one thread with no hook inside the call:
      // its share is the kernel probe's pass over the same pairs.
      put("update_s", kernel.pass_s, true);
      break;
    }
    case kLenkf:
      // Rank 0 reads inside its scatter span; send_s is the exclusive part.
      put("read_s", d.at("lenkf.read_ns") * ns, true);
      put("send_s", (d.at("lenkf.send_ns") - d.at("lenkf.read_ns")) * ns, true);
      put("update_s", d.at("lenkf.update_ns") * ns / ranks, true);
      break;
    case kPenkf:
      put("read_s", d.at("penkf.read_ns") * ns / ranks, true);
      put("update_s", d.at("penkf.update_ns") * ns / (ranks * threads), true);
      break;
    case kSenkf: {
      const double io_ranks = static_cast<double>(kConcurrentGroups * kSdy);
      // I/O ranks run beside the computation ranks; their cost reaches
      // the wall only through comp_wait.
      put("io_read_s", call.stats.io_read_seconds / io_ranks, false);
      put("io_send_s", call.stats.io_send_seconds / io_ranks, false);
      put("comp_wait_s", call.stats.comp_wait_seconds / ranks, true);
      put("comp_update_s",
          call.stats.comp_update_seconds / (ranks * threads), true);
      put("read_skew", call.stats.read_skew, false);
      break;
    }
    default:
      break;
  }
  put("wall_s", call.wall_s, false);
  put("unattributed_s", call.wall_s - attributed, false);
}

// ---------------------------------------------------------------------------
// JSON output (flat, only what this file writes).

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream s;
  s << std::setprecision(17) << v;
  return s.str();
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + json_number(v[i]);
  }
  return out + "]";
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += (first ? "" : ",") + json_string(k) + ":" + json_number(v);
    first = false;
  }
  return out + "}";
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path workdir;
  std::filesystem::path trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have[1] = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      have[2] = true;
    } else if (key == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
    } else if (key == "--workdir") {
      args.workdir = value;
      have[3] = true;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]) || args.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: numbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir> [--trace-out <file>]");
  }
  return args;
}

/// SENKF_* knobs change what is measured: only the pinned ones may be set.
/// Returns the pinned settings in effect; throws on any other SENKF_* name.
std::string check_senkf_environment() {
  std::string pinned;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("SENKF_", 0) != 0) continue;
    const std::string name = entry.substr(0, entry.find('='));
    if (name != "SENKF_KERNEL" && name != "SENKF_LOG") {
      throw std::invalid_argument("refusing to run with unpinned " + name +
                                  " set");
    }
    pinned += (pinned.empty() ? "" : " ") + entry;
  }
  return "pinned: " + (pinned.empty() ? std::string("none") : pinned) +
         "; no other SENKF_* variable set";
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::cerr << "numbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Workload& w = *found;
  const std::string env_check = check_senkf_environment();

  std::filesystem::create_directories(args.workdir);
  const std::filesystem::path ensemble_dir =
      args.workdir / (std::string(w.name) + "-ensemble-" +
                      std::to_string(::getpid()));
  struct RemoveDir {
    std::filesystem::path path;
    ~RemoveDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } cleanup{ensemble_dir};

  // --- set-up, repeated so its median is steady --------------------------
  std::vector<double> setup_s;
  std::optional<Scenario> scenario;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepetitions); ++i) {
    scenario.reset();
    const auto t0 = Clock::now();
    scenario.emplace(make_scenario(w, args.seed, ensemble_dir));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const Scenario& s = *scenario;
  const enkf::EnsembleStore& store = *s.store;

  Tracer tracer;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  const auto check = [&](Engine e, const Call& call,
                         const std::vector<grid::Field>& gold) {
    ++attempted;
    const std::string why = disagreement(call, gold);
    if (!why.empty()) {
      failures.push_back(std::string(kEngineNames[e]) + ": " + why);
    }
  };

  // Each fresh-obs call gets its own draw of the rep's network: a new
  // ObservationSet is a new localization epoch, so every engine runs cold.
  std::uint64_t rep = 0;
  const auto network_for = [&](std::uint64_t r) {
    return draw_network(w, s.mesh, s.ensemble.truth, args.seed, r);
  };

  // --- warm-up: one call per engine; the serial result is the reference ---
  std::vector<grid::Field> gold;
  {
    Call serial = call_engine(kSerial, store, s.network, w);
    if (!serial.error.empty()) {
      std::cerr << "numbench: serial reference threw: " << serial.error << "\n";
      return 1;
    }
    gold = std::move(serial.analysis);
    ++attempted;
    for (Engine e : {kLenkf, kPenkf, kSenkf}) {
      check(e, call_engine(e, store, s.network, w), gold);
    }
  }
  const double analysis_rmse = enkf::mean_field_rmse(gold, s.ensemble.truth);
  const double background_rmse =
      enkf::mean_field_rmse(s.ensemble.members, s.ensemble.truth);

  // --- probes (traced run only) ------------------------------------------
  KernelProbe kernel;
  ObsProbe obs_probe;
  std::vector<Pair> pairs = analysis_pairs(w, s.mesh);
  if (args.trace) {
    tracer.set_enabled(true);
    obs_probe = probe_obs(pairs, s.network, tracer, 3);
    kernel = probe_kernel(w, pairs, s, s.network, tracer, 3);
    tracer.set_enabled(false);
  }

  // --- measured repetitions ------------------------------------------------
  std::map<std::string, std::vector<double>> samples;  // engine → wall s
  std::map<std::string, std::vector<double>> traced;   // engine → wall s
  std::vector<Layers> layer_reps;
  const auto t_measure = Clock::now();
  double last_rep_s = 0.0;
  for (rep = 1;; ++rep) {
    const double elapsed = seconds_between(t_measure, Clock::now());
    if (rep > kMinRepetitions && elapsed + last_rep_s > args.seconds) break;
    const auto t_rep = Clock::now();
    std::vector<grid::Field> rep_gold;
    std::vector<std::pair<Engine, Call>> pending;
    Layers layers;
    for (int i = 0; i < kEngines; ++i) {
      const Engine e = static_cast<Engine>((i + rep) % kEngines);
      std::optional<Network> fresh;
      if (w.fresh_obs) fresh.emplace(network_for(rep));
      const Network& net = fresh ? *fresh : s.network;
      Call call = call_engine(e, store, net, w);
      samples[kEngineNames[e]].push_back(call.wall_s);
      if (args.trace) {
        std::optional<Network> fresh_traced;
        if (w.fresh_obs) fresh_traced.emplace(network_for(rep));
        const Network& tnet = fresh_traced ? *fresh_traced : s.network;
        const TimedStore timed(store, tracer);
        const std::uint64_t segments0 = store.segments_touched();
        const Counters before = read_counters();
        tracer.set_enabled(true);
        Call traced_call;
        {
          const std::string name = std::string("engine.") + kEngineNames[e];
          const ScopedSpan span(tracer, name.c_str(), 0);
          tracer.engine_span.store(span.id());
          traced_call = call_engine(e, timed, tnet, w);
          tracer.engine_span.store(0);
        }
        tracer.set_enabled(false);
        const Counters d = delta(before, read_counters());
        const TimedStore::Totals reads = timed.totals();
        traced[kEngineNames[e]].push_back(traced_call.wall_s);
        attribute(e, traced_call, d, reads, kernel, layers);
        for (int a = 0; a < TimedStore::kAccessKinds; ++a) {
          const std::string base =
              std::string("enkf.store.") + TimedStore::kAccessNames[a];
          layers[base + ".calls"] += static_cast<double>(reads.calls[a]);
          layers["enkf.store.read_s"] +=
              static_cast<double>(reads.busy_ns[a]) * 1e-9;
          layers["enkf.store.bytes"] += static_cast<double>(reads.bytes[a]);
        }
        layers["enkf.store.segments"] +=
            static_cast<double>(store.segments_touched() - segments0);
        for (const auto& [name, value] : d) layers["registry." + name] += value;
        pending.emplace_back(e, std::move(traced_call));
      }
      if (e == kSerial) rep_gold = call.analysis;
      pending.emplace_back(e, std::move(call));
    }
    const std::vector<grid::Field>& reference = w.fresh_obs ? rep_gold : gold;
    for (const auto& [e, call] : pending) check(e, call, reference);
    if (args.trace) layer_reps.push_back(std::move(layers));
    last_rep_s = seconds_between(t_rep, Clock::now());
  }

  if (args.trace && !args.trace_out.empty()) {
    tracer.write_chrome_trace(args.trace_out);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;

  // --- the raw record ------------------------------------------------------
  std::ostringstream out;
  out << "{\"workload\":" << json_string(w.name)
      << ",\"why\":" << json_string(w.why) << ",\"seed\":" << args.seed
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"build_type\":" << json_string(NUMBENCH_BUILD_TYPE)
      << ",\"kernel_table\":"
      << json_string(linalg::kernels::active_kernels().name)
      << ",\"loadavg\":" << json_array({load[0], load[1], load[2]})
      << ",\"env_check\":"
      << json_string(env_check)
      << "},\"config\":{\"nx\":" << w.nx << ",\"ny\":" << w.ny
      << ",\"members\":" << w.members << ",\"stations\":" << w.stations
      << ",\"layers\":" << w.layers << ",\"halo\":[" << w.halo.xi << ","
      << w.halo.eta << "],\"n_sdx\":" << kSdx << ",\"n_sdy\":" << kSdy
      << ",\"n_cg\":" << kConcurrentGroups
      << ",\"analysis_threads\":" << kAnalysisThreads
      << ",\"store\":" << json_string(w.files ? "file" : "memory")
      << ",\"fresh_obs\":" << (w.fresh_obs ? "true" : "false")
      << "},\"attempted\":" << attempted << ",\"failed\":" << failures.size()
      << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    out << (i ? "," : "") << json_string(failures[i]);
  }
  out << "],\"repetitions\":" << (rep - 1)
      << ",\"setup_s\":" << json_array(setup_s)
      << ",\"peak_rss_mb\":"
      << json_number(static_cast<double>(usage.ru_maxrss) / 1024.0)
      << ",\"analysis_rmse\":" << json_number(analysis_rmse)
      << ",\"background_rmse\":" << json_number(background_rmse)
      << ",\"samples\":{";
  bool first = true;
  for (const auto& [name, v] : samples) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_array(v);
    first = false;
  }
  out << "}";
  if (args.trace) {
    out << ",\"traced\":{";
    first = true;
    for (const auto& [name, v] : traced) {
      out << (first ? "" : ",") << json_string(name) << ":" << json_array(v);
      first = false;
    }
    out << "},\"probes\":"
        << json_object({{"obs.localize.cold_s", obs_probe.cold_s},
                        {"obs.localize.warm_s", obs_probe.warm_s},
                        {"obs.localize.bytes", obs_probe.bytes},
                        {"obs.localize.entries", obs_probe.entries},
                        {"enkf.kernel.patch_s", kernel.patch_s},
                        {"enkf.kernel.pass_s", kernel.pass_s},
                        {"enkf.kernel.gflop", kernel.gflop},
                        {"enkf.kernel.allocs", kernel.allocs}})
        << ",\"layer_reps\":[";
    for (std::size_t i = 0; i < layer_reps.size(); ++i) {
      out << (i ? "," : "") << json_object(layer_reps[i]);
    }
    out << "]";
  }
  out << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "numbench: " << e.what() << "\n";
    return 2;
  }
}
