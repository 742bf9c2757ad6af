#include "telemetry/timeseries.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "telemetry/trace.hpp"

namespace senkf::telemetry {

void SeriesData::append(std::int64_t t_ns, double value,
                        std::size_t capacity) {
  if (capacity == 0) {
    ++dropped;
    return;
  }
  points.push_back({t_ns, value});
  // Samples arrive in time order from one recorder; a stray out-of-order
  // point (two explicit samplers racing) is repaired locally.
  for (std::size_t i = points.size() - 1;
       i > 0 && points[i].t_ns < points[i - 1].t_ns; --i) {
    std::swap(points[i], points[i - 1]);
  }
  if (points.size() > capacity) {
    points.erase(points.begin());
    ++dropped;
  }
}

void SeriesData::merge(const SeriesData& other, std::size_t capacity) {
  dropped += other.dropped;
  std::vector<SeriesPoint> merged;
  merged.reserve(points.size() + other.points.size());
  std::merge(points.begin(), points.end(), other.points.begin(),
             other.points.end(), std::back_inserter(merged),
             [](const SeriesPoint& a, const SeriesPoint& b) {
               return a.t_ns < b.t_ns;
             });
  if (merged.size() > capacity) {
    const std::size_t evict = merged.size() - capacity;
    dropped += evict;
    merged.erase(merged.begin(),
                 merged.begin() + static_cast<std::ptrdiff_t>(evict));
  }
  points = std::move(merged);
}

TimeSeriesRecorder::TimeSeriesRecorder(std::size_t capacity)
    : capacity_(capacity) {}

void TimeSeriesRecorder::sample(const Registry& registry) {
  sample_at(now_ns(), registry);
}

void TimeSeriesRecorder::sample_at(std::int64_t t_ns,
                                   const Registry& registry) {
  const std::vector<MetricRow> rows = registry.rows();
  std::lock_guard<std::mutex> lock(mutex_);
  ++samples_;
  for (const MetricRow& row : rows) {
    switch (row.kind) {
      case MetricRow::Kind::kGauge:
        series_[row.name].append(t_ns, static_cast<double>(row.gauge),
                                 capacity_);
        break;
      case MetricRow::Kind::kCounter:
      case MetricRow::Kind::kHistogram: {
        // Monotone sources sample as deltas; all-zero intervals are
        // skipped so idle counters don't grow flat-line series.
        const std::uint64_t now = row.kind == MetricRow::Kind::kCounter
                                      ? row.counter
                                      : row.count;
        auto [it, fresh] = prev_counts_.try_emplace(row.name, 0);
        (void)fresh;
        const std::uint64_t prev = it->second;
        it->second = now;
        // A reset between samples (now < prev) restarts the baseline
        // instead of wrapping.
        const std::uint64_t delta = now >= prev ? now - prev : now;
        if (delta != 0) {
          series_[row.name].append(t_ns, static_cast<double>(delta),
                                   capacity_);
        }
        break;
      }
    }
  }
}

std::map<std::string, SeriesData> TimeSeriesRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {series_.begin(), series_.end()};
}

std::vector<SeriesPoint> TimeSeriesRecorder::series(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(name);
  return it == series_.end() ? std::vector<SeriesPoint>{} : it->second.points;
}

std::uint64_t TimeSeriesRecorder::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

void TimeSeriesRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_ = 0;
  prev_counts_.clear();
  series_.clear();
}

TimeSeriesRecorder& TimeSeriesRecorder::global() {
  // Leaked for the same reason as the metrics registry: the report
  // writer reads it from an atexit handler.
  static auto* recorder = new TimeSeriesRecorder();
  return *recorder;
}

SampleEnvConfig parse_sample_env(const char* value) {
  SampleEnvConfig config;
  const std::string v = value == nullptr ? "" : value;
  if (v.empty() || v == "off" || v == "0" || v == "false") return config;
  char* end = nullptr;
  const long long ms = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || ms <= 0) {
    // Unparsable: stay off, never crash the run — but say so.
    std::cerr << "[senkf timeseries] WARN ignoring SENKF_SAMPLE_MS='" << v
              << "' (expected off|<ms > 0>)\n";
    return config;
  }
  config.enabled = true;
  config.interval_ms = static_cast<std::int64_t>(ms);
  return config;
}

namespace {

// Background sampler state.  The thread parks on a condition variable so
// stop_sampler() interrupts a long period immediately instead of waiting
// it out.
std::mutex g_sampler_mutex;
std::condition_variable g_sampler_cv;
std::thread g_sampler_thread;
bool g_sampler_running = false;
bool g_sampler_stop = false;
// The SENKF_SAMPLE_MS value last parsed and its parse, so each run's
// ensure call re-reads the env yet a bad value WARNs once, not per run.
std::string g_sampler_env;
SampleEnvConfig g_sampler_config;

void sampler_loop(std::chrono::milliseconds interval) {
  std::unique_lock<std::mutex> lock(g_sampler_mutex);
  while (!g_sampler_stop) {
    if (g_sampler_cv.wait_for(lock, interval,
                              [] { return g_sampler_stop; })) {
      break;
    }
    lock.unlock();
    TimeSeriesRecorder::global().sample(Registry::global());
    lock.lock();
  }
}

}  // namespace

bool ensure_sampler_started() {
  const char* env = std::getenv("SENKF_SAMPLE_MS");
  const std::string value = env == nullptr ? "" : env;
  std::lock_guard<std::mutex> lock(g_sampler_mutex);
  if (value != g_sampler_env) {
    g_sampler_config = parse_sample_env(env);
    g_sampler_env = value;
  }
  if (!g_sampler_config.enabled) return false;
  if (g_sampler_running) return true;
  g_sampler_stop = false;
  g_sampler_thread = std::thread(
      sampler_loop, std::chrono::milliseconds(g_sampler_config.interval_ms));
  g_sampler_running = true;
  // Registered at first start — i.e. after the pre-main trace/report
  // handlers — so LIFO atexit order stops the sampler before those
  // exporters run, and the final report sees a quiesced recorder.
  static const bool registered = [] {
    std::atexit([] { stop_sampler(); });
    return true;
  }();
  (void)registered;
  return true;
}

std::int64_t sampler_interval_ms() {
  std::lock_guard<std::mutex> lock(g_sampler_mutex);
  return g_sampler_config.interval_ms;
}

void stop_sampler() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(g_sampler_mutex);
    if (!g_sampler_running) return;
    g_sampler_stop = true;
    g_sampler_running = false;
    to_join = std::move(g_sampler_thread);
  }
  g_sampler_cv.notify_all();
  if (to_join.joinable()) to_join.join();
}

}  // namespace senkf::telemetry
