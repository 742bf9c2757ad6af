// Thread-backed "virtual MPI job" launcher.
//
// `Runtime::run(n, main)` plays the role of mpirun: it builds one mailbox
// per rank, spawns n threads, hands each a world Communicator over those
// mailboxes, joins them all, and rethrows the first exception any rank
// raised (after every thread has exited, so no dangling references).
// Ranks are plain callables, which keeps the EnKF implementations
// testable in-process and deterministic.
#pragma once

#include <functional>

#include "parcomm/communicator.hpp"

namespace senkf::parcomm {

class Runtime {
 public:
  using RankMain = std::function<void(Communicator&)>;

  /// Runs `rank_main` on `world_size` ranks and blocks until all finish.
  /// The first exception thrown by any rank is rethrown here.  If a rank
  /// throws while others are blocked in receives, the blocked ranks fail
  /// via Mailbox timeouts rather than hanging forever.
  static void run(int world_size, const RankMain& rank_main);
};

}  // namespace senkf::parcomm
