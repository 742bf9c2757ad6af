// Test helpers: a vector of doubles as one message, packed on send and
// copied out on receive.
#pragma once

#include <vector>

#include "parcomm/communicator.hpp"

namespace senkf::parcomm {

inline void send_values(Communicator& world, int dest, int tag,
                        const std::vector<double>& values) {
  Packer packer;
  packer.put_vector(values);
  world.send(dest, tag, packer.take());
}

inline std::vector<double> recv_values(Communicator& world, int source,
                                       int tag) {
  const Envelope envelope = world.recv(source, tag);
  return Unpacker(envelope.payload).get_vector<double>();
}

}  // namespace senkf::parcomm
