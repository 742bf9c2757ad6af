// Stress and property tests of the message-passing runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "parcomm/runtime.hpp"
#include "support/rng.hpp"
#include "values.hpp"

namespace senkf::parcomm {
namespace {

TEST(Stress, ManyToOneMessageStormPreservesContent) {
  // 15 senders × 40 messages each into one sink; every payload must
  // arrive exactly once (checked via a checksum of unique values).
  constexpr int kSenders = 15;
  constexpr int kPerSender = 40;
  Runtime::run(kSenders + 1, [](Communicator& world) {
    if (world.rank() == 0) {
      double sum = 0.0;
      for (int i = 0; i < kSenders * kPerSender; ++i) {
        sum += recv_values(world, kAnySource, 1)[0];
      }
      // Σ over senders s, messages m of (s·1000 + m).
      double expected = 0.0;
      for (int s = 1; s <= kSenders; ++s) {
        for (int m = 0; m < kPerSender; ++m) expected += s * 1000.0 + m;
      }
      EXPECT_DOUBLE_EQ(sum, expected);
    } else {
      for (int m = 0; m < kPerSender; ++m) {
        send_values(world, 0, 1, {world.rank() * 1000.0 + m});
      }
    }
  });
}

TEST(Stress, InterleavedTagsNeverCrossMatch) {
  // Two logical streams on distinct tags between the same pair: each
  // stream must stay ordered and uncontaminated.
  Runtime::run(2, [](Communicator& world) {
    constexpr int kCount = 64;
    if (world.rank() == 0) {
      Rng rng(1);
      int sent_a = 0, sent_b = 0;
      while (sent_a < kCount || sent_b < kCount) {
        const bool pick_a =
            sent_b >= kCount || (sent_a < kCount && rng.uniform() < 0.5);
        if (pick_a) {
          send_values(world, 1, 10, {100.0 + sent_a++});
        } else {
          send_values(world, 1, 20, {200.0 + sent_b++});
        }
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        EXPECT_DOUBLE_EQ(recv_values(world, 0, 10)[0], 100.0 + i);
      }
      for (int i = 0; i < kCount; ++i) {
        EXPECT_DOUBLE_EQ(recv_values(world, 0, 20)[0], 200.0 + i);
      }
    }
  });
}

TEST(Stress, LargePayloadsSurviveRoundTrip) {
  Runtime::run(2, [](Communicator& world) {
    std::vector<double> big(1 << 16);
    std::iota(big.begin(), big.end(), 0.0);
    if (world.rank() == 0) {
      send_values(world, 1, 1, big);
      const auto back = recv_values(world, 1, 2);
      EXPECT_EQ(back, big);
    } else {
      const auto data = recv_values(world, 0, 1);
      send_values(world, 0, 2, data);
    }
  });
}

TEST(Stress, ConcurrentRuntimesDoNotInterfere) {
  // Two Runtime::run universes in different threads, each running a ring
  // on the same tag: mailboxes are per run, so no message crosses over
  // and every rank hears from its own run's predecessor.
  std::atomic<int> done{0};
  const auto ring = [&done](double universe) {
    Runtime::run(4, [&done, universe](Communicator& world) {
      const int next = (world.rank() + 1) % world.size();
      const int prev = (world.rank() + world.size() - 1) % world.size();
      for (int round = 0; round < 20; ++round) {
        const double stamp = static_cast<double>(round);
        send_values(world, next, 1, {universe, stamp});
        EXPECT_EQ(recv_values(world, prev, 1),
                  (std::vector<double>{universe, stamp}));
      }
      ++done;
    });
  };
  std::thread other(ring, 1.0);
  ring(2.0);
  other.join();
  EXPECT_EQ(done.load(), 8);
}

}  // namespace
}  // namespace senkf::parcomm
