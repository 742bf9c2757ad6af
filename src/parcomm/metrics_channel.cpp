#include "parcomm/metrics_channel.hpp"

#include <optional>
#include <utility>

namespace senkf::parcomm {

namespace {

/// recv that honours the cancellation predicate: poll-sliced when a
/// predicate is installed, plain blocking recv otherwise.  nullopt means
/// the caller should give up on this partner.
std::optional<Envelope> recv_cancellable(Communicator& world, int source,
                                         int tag,
                                         const std::function<bool()>& cancelled,
                                         std::chrono::milliseconds poll) {
  if (!cancelled) return world.recv(source, tag);
  while (true) {
    std::optional<Envelope> envelope = world.recv_for(source, tag, poll);
    if (envelope.has_value()) return envelope;
    if (cancelled()) return std::nullopt;
  }
}

}  // namespace

telemetry::MetricsSnapshot reduce_snapshots(
    Communicator& world, int tag, telemetry::MetricsSnapshot mine,
    const std::function<bool()>& cancelled, std::chrono::milliseconds poll) {
  const int rank = world.rank();
  const int size = world.size();
  // Binomial schedule: in round `mask` the ranks with that bit set send
  // their partial to rank - mask and drop out; the others absorb
  // rank + mask's subtree.
  for (int mask = 1; mask < size; mask <<= 1) {
    if ((rank & mask) != 0) {
      world.send(rank - mask, tag, Payload(mine.encode()));
      break;
    }
    if (rank + mask < size) {
      std::optional<Envelope> envelope =
          recv_cancellable(world, rank + mask, tag, cancelled, poll);
      if (!envelope.has_value()) continue;  // peer unwound; degrade
      const Payload& bytes = envelope->payload.bytes();
      mine.merge(telemetry::MetricsSnapshot::decode(bytes.data(), bytes.size()));
    }
  }
  return mine;
}

}  // namespace senkf::parcomm
