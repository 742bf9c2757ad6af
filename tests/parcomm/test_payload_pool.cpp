#include "parcomm/payload_pool.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "parcomm/runtime.hpp"
#include "telemetry/metrics.hpp"

namespace senkf::parcomm {
namespace {

/// Hits and misses as the registry counts them, from construction on.
/// The counters are process-wide; the tests in this binary run one at a
/// time, so nothing else moves them in between.
class PoolCounts {
 public:
  PoolCounts()
      : hits0_(read("parcomm.pool.hit")),
        misses0_(read("parcomm.pool.miss")) {}
  std::uint64_t hits() const { return read("parcomm.pool.hit") - hits0_; }
  std::uint64_t misses() const {
    return read("parcomm.pool.miss") - misses0_;
  }

 private:
  static std::uint64_t read(const char* name) {
    return telemetry::Registry::global().counter_value(name);
  }
  std::uint64_t hits0_;
  std::uint64_t misses0_;
};

TEST(PayloadPool, RecyclesReleasedBuffer) {
  PayloadPool pool;
  const PoolCounts counts;
  Payload a = pool.acquire(1000);
  EXPECT_GE(a.capacity(), 1000u);
  a.resize(1000);
  const std::byte* storage = a.data();
  pool.release(std::move(a));

  // A smaller request in the same bucket reuses the exact allocation,
  // cleared.
  Payload b = pool.acquire(900);
  EXPECT_EQ(b.data(), storage);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 900u);
  EXPECT_EQ(counts.misses(), 1u);
  EXPECT_EQ(counts.hits(), 1u);
}

TEST(PayloadPool, CapacityContractAcrossBuckets) {
  PayloadPool pool;
  const PoolCounts counts;
  // A 1.5 KiB-capacity buffer floors into the 1 KiB bucket, so a 2 KiB
  // acquire must not be handed a too-small recycled buffer...
  Payload odd;
  odd.reserve(1536);
  const std::byte* storage = odd.data();
  pool.release(std::move(odd));
  const Payload big = pool.acquire(2048);
  EXPECT_GE(big.capacity(), 2048u);
  EXPECT_EQ(counts.hits(), 0u);
  // ...but a 1 KiB acquire can reuse it.
  const Payload small = pool.acquire(1024);
  EXPECT_EQ(counts.hits(), 1u);
  EXPECT_EQ(small.data(), storage);
  EXPECT_GE(small.capacity(), 1024u);
}

TEST(PayloadPool, OutOfRangeCapacitiesBypassThePool) {
  PayloadPool pool;
  const PoolCounts counts;
  // Below kMinBytes and above kMaxBytes: neither is kept, so the next
  // acquire of either size is a fresh allocation (a miss), never a hit.
  Payload tiny;
  tiny.reserve(8);
  pool.release(std::move(tiny));
  Payload huge;
  huge.reserve(PayloadPool::kMaxBytes + 1);
  pool.release(std::move(huge));
  EXPECT_GE(pool.acquire(8).capacity(), 8u);
  EXPECT_GE(pool.acquire(PayloadPool::kMaxBytes + 1).capacity(),
            PayloadPool::kMaxBytes + 1);
  EXPECT_EQ(counts.hits(), 0u);
  EXPECT_EQ(counts.misses(), 2u);
}

TEST(PayloadPool, FullBucketDropsTheOverflow) {
  PayloadPool pool;
  constexpr std::size_t kBytes = 4096;
  // Fill one bucket to its cap, then release one more buffer.
  std::vector<Payload> held;
  std::set<const std::byte*> kept;
  for (std::size_t i = 0; i <= PayloadPool::kMaxPerBucket; ++i) {
    held.push_back(pool.acquire(kBytes));
    if (i < PayloadPool::kMaxPerBucket) kept.insert(held.back().data());
  }
  ASSERT_EQ(kept.size(), PayloadPool::kMaxPerBucket);
  for (Payload& buffer : held) pool.release(std::move(buffer));
  held.clear();

  // Exactly the kMaxPerBucket buffers that fit come back (all held at
  // once, so none can alias another); the overflow was freed, so the
  // next acquire is a miss.
  const PoolCounts counts;
  for (std::size_t i = 0; i < PayloadPool::kMaxPerBucket; ++i) {
    held.push_back(pool.acquire(kBytes));
    EXPECT_EQ(kept.count(held.back().data()), 1u);
  }
  EXPECT_EQ(counts.hits(), PayloadPool::kMaxPerBucket);
  held.push_back(pool.acquire(kBytes));
  EXPECT_EQ(counts.hits(), PayloadPool::kMaxPerBucket);
  EXPECT_EQ(counts.misses(), 1u);
}

TEST(PayloadPool, ConcurrentAcquireReleaseKeepsAccountsBalanced) {
  PayloadPool pool;
  const PoolCounts counts;
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  constexpr std::size_t kBuckets = 6;  // 256 B << 0..5
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t bytes =
            std::size_t{256} << (static_cast<std::size_t>(i + t) % kBuckets);
        Payload buffer = pool.acquire(bytes);
        ASSERT_GE(buffer.capacity(), bytes);
        buffer.resize(bytes);
        pool.release(std::move(buffer));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every acquire counts once, as a hit or a miss; with each thread
  // holding at most one buffer, at most kThreads per bucket are ever
  // fresh, so recycling dominates.
  EXPECT_EQ(counts.hits() + counts.misses(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(counts.misses(), static_cast<std::uint64_t>(kThreads) * kBuckets);
}

TEST(SharedPayloadLifetime, FanOutPayloadOutlivesSenderHandle) {
  // The ownership contract of the zero-copy plane (DESIGN.md §10): root
  // seals one buffer, fans the handle to every receiver, and drops its
  // own handle — possibly before any receiver has read a byte.  Each
  // receiver's in-place view must still see the data; the refcount (and
  // nothing else) keeps the buffer alive.  Run under
  // -DSENKF_SANITIZE=thread this doubles as the data-race gate for
  // cross-thread payload sharing.
  constexpr int kRanks = 6;
  Runtime::run(kRanks, [](Communicator& world) {
    constexpr int kTag = 7;
    constexpr std::size_t kDoubles = 4096;
    if (world.rank() == 0) {
      Packer packer;
      packer.reserve(sizeof(std::uint64_t) + kDoubles * sizeof(double));
      std::vector<double> values(kDoubles);
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = static_cast<double>(i);
      }
      packer.put_vector(values);
      SharedPayload payload = packer.take_shared();
      for (int r = 1; r < world.size(); ++r) {
        world.send_shared(r, kTag, payload);
      }
      payload = SharedPayload();  // sender's handle gone; receivers hold on
    } else {
      const Envelope envelope = world.recv(0, kTag);
      Unpacker unpacker(envelope.payload);
      const std::span<const double> view = unpacker.view<double>();
      ASSERT_EQ(view.size(), kDoubles);
      EXPECT_DOUBLE_EQ(view[1], 1.0);
      EXPECT_DOUBLE_EQ(view[kDoubles - 1],
                       static_cast<double>(kDoubles - 1));
    }
  });
}

}  // namespace
}  // namespace senkf::parcomm
