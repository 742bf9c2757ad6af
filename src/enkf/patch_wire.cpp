#include "enkf/patch_wire.hpp"

#include <algorithm>
#include <limits>

#include "telemetry/trace.hpp"

namespace senkf::enkf {

namespace {

void pack_rect(parcomm::Packer& packer, grid::Rect rect) {
  packer.put<std::uint64_t>(rect.x.begin);
  packer.put<std::uint64_t>(rect.x.end);
  packer.put<std::uint64_t>(rect.y.begin);
  packer.put<std::uint64_t>(rect.y.end);
}

grid::Rect unpack_rect(parcomm::Unpacker& unpacker) {
  grid::Rect rect;
  rect.x.begin = unpacker.get<std::uint64_t>();
  rect.x.end = unpacker.get<std::uint64_t>();
  rect.y.begin = unpacker.get<std::uint64_t>();
  rect.y.end = unpacker.get<std::uint64_t>();
  return rect;
}

}  // namespace

void pack_patch(parcomm::Packer& packer, const PatchView& patch) {
  pack_rect(packer, patch.rect());
  packer.put_span(patch.values());
}

void pack_patch_block(parcomm::Packer& packer, const PatchView& bar,
                      grid::Rect block) {
  SENKF_REQUIRE(grid::rect_contains(bar.rect(), block),
                "pack_patch_block: block must lie inside the bar");
  pack_rect(packer, block);
  packer.put<std::uint64_t>(block.count());
  const double* values = bar.values().data();
  for (grid::Index y = block.y.begin; y < block.y.end; ++y) {
    packer.put_raw(values + bar.local_index(block.x.begin, y),
                   block.x.size());
  }
  if (block.count() > 0) parcomm::detail::payload_copies_counter().add(1);
}

std::size_t packed_patch_size(grid::Rect rect) {
  return 5 * sizeof(std::uint64_t) + rect.count() * sizeof(double);
}

std::span<double> pack_patch_slot(parcomm::Packer& packer, grid::Rect rect) {
  pack_rect(packer, rect);
  packer.put<std::uint64_t>(rect.count());
  auto body = packer.put_uninit<double>(rect.count());
  // The producer's in-place fill is the one body write this block sees.
  if (rect.count() > 0) parcomm::detail::payload_copies_counter().add(1);
  return body;
}

grid::Patch unpack_patch(parcomm::Unpacker& unpacker) {
  const grid::Rect rect = unpack_rect(unpacker);
  auto values = unpacker.get_vector<double>();
  return grid::Patch(rect, std::move(values));
}

PatchView unpack_patch_view(parcomm::Unpacker& unpacker) {
  const grid::Rect rect = unpack_rect(unpacker);
  const std::span<const double> values = unpacker.view<double>();
  SENKF_REQUIRE(values.size() == rect.count(),
                "unpack_patch_view: body length disagrees with rect");
  return PatchView(rect, values);
}

parcomm::Packer join_layer_results(std::span<parcomm::Packer> layer_packs,
                                   std::uint64_t records) {
  std::size_t bytes = sizeof(std::uint64_t);
  for (const parcomm::Packer& pack : layer_packs) bytes += pack.size();
  parcomm::Packer results;
  results.reserve(bytes);
  results.put<std::uint64_t>(records);
  for (parcomm::Packer& pack : layer_packs) {
    const parcomm::Payload payload = pack.take();
    results.put_raw(payload.data(), payload.size());
  }
  return results;
}

std::vector<grid::Field> gather_results(parcomm::Communicator& world, int tag,
                                        int senders,
                                        std::span<const grid::Index> members,
                                        const MemberLoader& load,
                                        const parcomm::SharedPayload& own) {
  constexpr grid::Index kUnlisted = std::numeric_limits<grid::Index>::max();
  grid::Index slots = 0;
  for (const grid::Index member : members) slots = std::max(slots, member + 1);
  std::vector<grid::Index> position(slots, kUnlisted);
  std::vector<grid::Field> fields;
  fields.reserve(members.size());
  for (grid::Index i = 0; i < members.size(); ++i) {
    position[members[i]] = i;
    fields.push_back(load(members[i]));
  }

  const auto apply = [&](const parcomm::SharedPayload& payload) {
    parcomm::Unpacker unpacker(payload);
    const auto count = unpacker.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto member = unpacker.get<std::uint64_t>();
      SENKF_REQUIRE(member < slots && position[member] != kUnlisted,
                    "gather_results: result for a member that is not listed");
      fields[position[member]].insert(unpack_patch_view(unpacker));
    }
  };
  apply(own);
  for (int r = 1; r < senders; ++r) {
    parcomm::Envelope envelope;
    {
      telemetry::TraceSpan wait_span(telemetry::Category::kWait,
                                     "result_wait");
      envelope = world.recv(r, tag);
      wait_span.set_flow(telemetry::FlowDir::kIn, envelope.ctx.span_id);
    }
    apply(envelope.payload);
  }
  return fields;
}

}  // namespace senkf::enkf
