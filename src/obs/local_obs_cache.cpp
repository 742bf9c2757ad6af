#include "obs/local_obs_cache.hpp"

#include <map>
#include <mutex>
#include <shared_mutex>
#include <tuple>

#include "telemetry/metrics.hpp"

namespace senkf::obs {

namespace {

// (epoch, rect) totally ordered for std::map.
using Key = std::tuple<std::uint64_t, Index, Index, Index, Index>;

Key make_key(const ObservationSet& observations, grid::Rect rect) {
  return {observations.epoch(), rect.x.begin, rect.x.end, rect.y.begin,
          rect.y.end};
}

struct Cache {
  // A single network localizes to at most one entry per sub-domain; the
  // cap only matters when many epochs fly through without superseding
  // each other (e.g. concurrent runs on different networks), where it
  // bounds memory.
  static constexpr std::size_t kMaxEntries = 4096;

  std::shared_mutex mutex;
  std::map<Key, std::shared_ptr<const LocalObservations>> entries;
  std::uint64_t newest_epoch = 0;
};

Cache& cache() {
  static Cache instance;
  return instance;
}

telemetry::Counter& hits() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("analysis.localization.hits");
  return c;
}

telemetry::Counter& misses() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("analysis.localization.misses");
  return c;
}

telemetry::Gauge& entries_gauge() {
  static telemetry::Gauge& g =
      telemetry::Registry::global().gauge("analysis.localization.entries");
  return g;
}

}  // namespace

std::shared_ptr<const LocalObservations> localized(
    const ObservationSet& observations, grid::Rect rect) {
  Cache& c = cache();
  const Key key = make_key(observations, rect);
  {
    std::shared_lock lock(c.mutex);
    const auto it = c.entries.find(key);
    if (it != c.entries.end()) {
      hits().add();
      return it->second;
    }
  }

  // Build outside any lock (localization sorts every row's supports);
  // concurrent builders of the same key race benignly — first insert
  // wins and the loser's build is returned to that caller only.
  misses().add();
  auto built = std::make_shared<const LocalObservations>(observations, rect);

  std::unique_lock lock(c.mutex);
  const auto [it, inserted] = c.entries.emplace(key, built);
  if (!inserted) return it->second;
  if (observations.epoch() > c.newest_epoch) {
    // A newer observation set supersedes older ones: their rects will
    // not be queried again, so drop them eagerly.
    c.newest_epoch = observations.epoch();
    std::erase_if(c.entries, [&](const auto& entry) {
      return std::get<0>(entry.first) < c.newest_epoch;
    });
  }
  if (c.entries.size() > Cache::kMaxEntries) {
    // Pathological many-epochs-alive case: shed the oldest epochs first
    // (map order is epoch-major).
    auto cut = c.entries.begin();
    std::advance(cut, c.entries.size() - Cache::kMaxEntries);
    c.entries.erase(c.entries.begin(), cut);
  }
  entries_gauge().set(static_cast<std::int64_t>(c.entries.size()));
  return built;
}

void clear_localization_cache() {
  Cache& c = cache();
  std::unique_lock lock(c.mutex);
  c.entries.clear();
  c.newest_epoch = 0;
  entries_gauge().set(0);
}

std::size_t localization_cache_size() {
  Cache& c = cache();
  std::shared_lock lock(c.mutex);
  return c.entries.size();
}

}  // namespace senkf::obs
