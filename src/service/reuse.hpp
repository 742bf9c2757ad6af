// Cross-job reuse (DESIGN.md §14): what back-to-back cycles of the same
// tenant can share.
//
//  * BarReadCache — an LRU over whole cached ensembles.  A job whose
//    (tenant, file range, grid) signature matches a cached entry serves
//    its bar reads from memory at `cache_bandwidth` instead of queueing
//    on the shared PFS — the service-plane analogue of S-EnKF keeping the
//    background ensemble resident between cycles.  Capacity-bounded with
//    LRU eviction; any write to a tenant's ensemble (a new job with a
//    different signature) simply misses and repopulates.
//
//  * SharedBufferPool — the real parcomm::PayloadPool shared across jobs:
//    each job acquires its per-(row, group) scatter buffers at start and
//    releases them at completion, so a busy service recycles one warm set
//    of buffers instead of re-allocating per job.  Buffer capacities are
//    clamped (the DES does not need the payload bytes, only the reuse
//    behaviour), and the modelled allocation overhead is charged on
//    misses only.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "parcomm/payload_pool.hpp"
#include "service/job.hpp"

namespace senkf::service {

class BarReadCache {
 public:
  explicit BarReadCache(double capacity_bytes);

  /// True when `spec`'s ensemble is cached (and refreshes its LRU slot).
  bool lookup(const JobSpec& spec);

  /// Records `spec`'s ensemble as cached, evicting least-recently-used
  /// ensembles until the new total fits.  An ensemble larger than the
  /// whole cache is not inserted.
  void insert(const JobSpec& spec);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };
  const Stats& stats() const { return stats_; }
  double resident_bytes() const { return resident_bytes_; }

 private:
  struct Entry {
    std::string key;
    double bytes = 0.0;
  };

  static std::string key_of(const JobSpec& spec);

  double capacity_bytes_;
  double resident_bytes_ = 0.0;
  /// Most-recently-used first.
  std::list<Entry> entries_;
  Stats stats_;
};

class SharedBufferPool {
 public:
  /// Capacity clamp for pooled buffers: reuse bookkeeping does not need
  /// multi-megabyte allocations to be faithful.
  static constexpr std::size_t kMaxModelBytes = std::size_t{1} << 20;

  /// One job's working set of scatter buffers, held for its duration.
  struct JobBuffers {
    std::vector<parcomm::Payload> buffers;
    std::uint64_t hits = 0;    ///< recycled from a previous job
    std::uint64_t misses = 0;  ///< freshly allocated
  };

  /// Takes `count` buffers of (clamped) `bytes` capacity for one job.
  JobBuffers acquire(std::uint64_t count, std::size_t bytes);

  /// Returns the job's buffers so the next job can recycle them.
  void release(JobBuffers&& buffers);

  parcomm::PayloadPool::Stats stats() const { return pool_.stats(); }

 private:
  parcomm::PayloadPool pool_;
};

}  // namespace senkf::service
