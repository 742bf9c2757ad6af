// One rank's handle on the in-process world: MPI-style point-to-point
// messaging over per-rank mailboxes.
//
// This is the message plane the paper's workflows run on (DESIGN.md §2):
// I/O ranks send each stage's blocks to computation ranks and rank 0
// collects the results, all on the one world communicator.  Processor
// roles (I/O group vs computation rank) are a RankLayout laid over world
// ranks, not sub-communicators.
//
// Semantics: sends are buffered (they never block), receives match on
// (source, tag) with wildcards and are non-overtaking per (source, tag)
// pair.
#pragma once

#include <chrono>
#include <optional>
#include <span>

#include "parcomm/mailbox.hpp"

namespace senkf::parcomm {

class Communicator {
 public:
  /// Rank `rank` of the world whose mailboxes (one per rank, indexed by
  /// rank) are `mailboxes`.  The mailboxes must outlive the communicator;
  /// Runtime::run owns them and joins every rank before freeing them.
  Communicator(std::span<Mailbox> mailboxes, int rank);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(mailboxes_.size()); }

  /// Buffered send: seals the payload (no copy) and returns immediately.
  void send(int dest, int tag, Payload payload);

  /// Buffered send of an already-sealed payload handle — the fan-out
  /// primitive: sending the same handle to many destinations moves
  /// pointers, never bytes.
  void send_shared(int dest, int tag, SharedPayload payload);

  /// Blocking receive with wildcard support.
  Envelope recv(int source = kAnySource, int tag = kAnyTag);

  /// Deadline-aware receive: blocks at most `timeout` and returns nullopt
  /// when nothing matched — a status, not an error, so callers can treat
  /// a silent peer as a straggler instead of hanging forever (the
  /// building block of S-EnKF's degraded I/O paths).
  std::optional<Envelope> recv_for(int source, int tag,
                                   std::chrono::milliseconds timeout);

  /// Non-blocking probe: true if a matching message is queued.  The queue
  /// is left as it was, so a probe never reorders messages.
  bool iprobe(int source = kAnySource, int tag = kAnyTag);

 private:
  /// Every outbound envelope funnels through here: counts payload bytes
  /// and, while tracing is armed, stamps the causal span context (origin
  /// rank, fresh flow id, send timestamp) and records the flow-origin
  /// trace event (DESIGN.md §13).  Cost with tracing off is one relaxed
  /// atomic load.
  void post(int dest, int tag, SharedPayload payload);

  std::span<Mailbox> mailboxes_;
  int rank_;
};

}  // namespace senkf::parcomm
