#include "parcomm/communicator.hpp"

#include "telemetry/phase.hpp"

namespace senkf::parcomm {

namespace {
telemetry::Counter& send_ns_counter() {
  static telemetry::Counter& counter =
      telemetry::Registry::global().counter("parcomm.send_ns");
  return counter;
}
telemetry::Counter& bytes_sent_counter() {
  static telemetry::Counter& counter =
      telemetry::Registry::global().counter("parcomm.bytes_sent");
  return counter;
}
}  // namespace

Communicator::Communicator(std::span<Mailbox> mailboxes, int rank)
    : mailboxes_(mailboxes), rank_(rank) {
  SENKF_REQUIRE(rank >= 0 && rank < size(), "Communicator: rank out of range");
}

void Communicator::post(int dest, int tag, SharedPayload payload) {
  Envelope envelope;
  envelope.source = rank_;
  envelope.tag = tag;
  envelope.payload = std::move(payload);
  bytes_sent_counter().add(envelope.payload.size());
  if (telemetry::tracing_enabled()) {
    envelope.ctx.origin_rank = rank_;
    envelope.ctx.span_id = telemetry::alloc_flow_id();
    envelope.ctx.send_ns = telemetry::now_ns();
    // Zero-length marker span carrying the flow origin ("s"): receivers'
    // wait spans point their flow steps/finish at this id, which is what
    // lets the critical-path walker (and Perfetto's arrows) jump from a
    // blocked receiver back to this exact send.
    telemetry::TraceEvent event;
    event.name = "msg_send";
    event.t_start_ns = envelope.ctx.send_ns;
    event.t_end_ns = envelope.ctx.send_ns;
    event.rank = envelope.ctx.origin_rank;
    event.flow_id = envelope.ctx.span_id;
    event.category = telemetry::Category::kSend;
    event.flow = telemetry::FlowDir::kOut;
    telemetry::record_event(event);
  }
  mailboxes_[dest].push(std::move(envelope));
}

void Communicator::send(int dest, int tag, Payload payload) {
  send_shared(dest, tag, SharedPayload(std::move(payload)));
}

void Communicator::send_shared(int dest, int tag, SharedPayload payload) {
  SENKF_REQUIRE(dest >= 0 && dest < size(),
                "Communicator::send: destination rank out of range");
  SENKF_REQUIRE(tag >= 0, "Communicator::send: tags must be >= 0");
  telemetry::CountedSpan span(telemetry::Category::kSend, "send",
                              send_ns_counter());
  post(dest, tag, std::move(payload));
}

Envelope Communicator::recv(int source, int tag) {
  return mailboxes_[rank_].pop(source, tag);
}

std::optional<Envelope> Communicator::recv_for(
    int source, int tag, std::chrono::milliseconds timeout) {
  return mailboxes_[rank_].pop_for(source, tag, timeout);
}

bool Communicator::iprobe(int source, int tag) {
  return mailboxes_[rank_].probe(source, tag);
}

}  // namespace senkf::parcomm
