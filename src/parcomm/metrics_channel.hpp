// Transport leg of the cross-rank observability plane (DESIGN.md §11).
//
// telemetry/aggregate.hpp owns the snapshot/merge/codec logic and knows
// nothing about messaging (telemetry sits below parcomm); this header
// ships the encoded snapshots over a caller-chosen tag using the
// zero-copy SharedPayload envelopes, reducing them to rank 0 along a
// binomial tree in O(log P) point-to-point rounds.
#pragma once

#include <chrono>
#include <functional>

#include "parcomm/communicator.hpp"
#include "telemetry/aggregate.hpp"

namespace senkf::parcomm {

/// Binomial-tree reduce of per-rank snapshots onto rank 0.  Every rank of
/// `world` must call this with the same tag; the fully merged snapshot is
/// returned on rank 0 (other ranks get back their partial subtree).
///
/// `cancelled` makes the reduce abort-safe: when set, each receive polls
/// in `poll`-sized slices and gives up on a subtree (merging nothing,
/// still forwarding its own partial) once `cancelled()` turns true — so
/// ranks that outlive an aborting peer drain in O(poll) instead of
/// hitting the mailbox's protocol deadline.  With the default no-op
/// predicate, receives block indefinitely.
telemetry::MetricsSnapshot reduce_snapshots(
    Communicator& world, int tag, telemetry::MetricsSnapshot mine,
    const std::function<bool()>& cancelled = {},
    std::chrono::milliseconds poll = std::chrono::milliseconds(200));

}  // namespace senkf::parcomm
