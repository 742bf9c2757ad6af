// Wire codec for grid patches used by every parcomm-based implementation,
// and the rank-0 result gather they all share.
//
// The wire format of one block is: 4 u64 rect bounds, then a u64 count,
// then `count` doubles (the same framing as Packer::put_span, so the body
// can be read back either as an owning vector or, zero-copy, as a
// grid::PatchView aliasing the payload bytes).  Every field is 8 bytes,
// so block bodies are always 8-byte aligned however blocks are
// concatenated — the alignment contract Unpacker::view<double>() relies
// on.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "grid/field.hpp"
#include "parcomm/communicator.hpp"
#include "parcomm/wire.hpp"

namespace senkf::enkf {

/// The view type the message plane trades in (see grid/field.hpp).
using PatchView = grid::PatchView;

/// Appends rect + values to the packer.  Accepts a view, so owning
/// Patches flow in via the implicit conversion and payload-backed views
/// are re-packed without materializing.
void pack_patch(parcomm::Packer& packer, const PatchView& patch);

/// Packs the sub-rectangle `block` of `bar` straight from the bar's row
/// storage (`block` must lie inside the bar's rect) — the
/// zero-intermediate path for scattering bar slices: no extracted Patch
/// is ever built, and the body is copied exactly once (bar rows →
/// payload).
void pack_patch_block(parcomm::Packer& packer, const PatchView& bar,
                      grid::Rect block);

/// Exact wire size in bytes of a packed block over `rect` — for
/// Packer::reserve so a message is built with zero reallocation.
std::size_t packed_patch_size(grid::Rect rect);

/// Writes the framing of a block over `rect` and returns the writable
/// body span (`rect.count()` doubles) for the caller to fill in place —
/// the zero-intermediate path for producers that *compute* the block
/// (analysis projection) rather than copy it.  The span is invalidated
/// by the next append to `packer`; the resulting bytes are identical to
/// pack_patch of a patch holding the same values.
std::span<double> pack_patch_slot(parcomm::Packer& packer, grid::Rect rect);

/// Reads back an owning Patch written by pack_patch/pack_patch_block
/// (one copy-out).
grid::Patch unpack_patch(parcomm::Unpacker& unpacker);

/// Zero-copy read: returns a view aliasing the payload bytes in place.
/// Valid only while the payload lives — callers keep the SharedPayload
/// handle alongside the view (DESIGN.md §10).
PatchView unpack_patch_view(parcomm::Unpacker& unpacker);

/// Joins per-layer analysis packs — runs of [u64 member][patch block]
/// records from local_analysis_packed — in layer order into one result
/// payload behind the u64 record count gather_results reads.  Sized
/// exactly up front, so the join never reallocates.
parcomm::Packer join_layer_results(std::span<parcomm::Packer> layer_packs,
                                   std::uint64_t records);

/// Loads one member's background field; engines with a retry policy put
/// it inside the loader.
using MemberLoader = std::function<grid::Field(grid::Index member)>;

/// Rank 0's result assembly, the one step the parallel engines share
/// after the analysis.  Loads the background of every member listed in
/// `members` through `load` (the returned fields follow that order; an
/// unlisted member, e.g. one S-EnKF dropped, is never loaded), applies
/// rank 0's own payload `own`, then the `tag` payload of each rank
/// 1..senders-1 in rank order, each received inside a `result_wait`
/// span.  A result payload is a u64 record count followed by that many
/// [u64 member][patch block] records — the framing local_analysis_packed
/// writes — and every patch is inserted straight from the payload bytes.
/// Throws InvalidArgument on a record for a member that is not listed.
std::vector<grid::Field> gather_results(parcomm::Communicator& world, int tag,
                                        int senders,
                                        std::span<const grid::Index> members,
                                        const MemberLoader& load,
                                        const parcomm::SharedPayload& own);

}  // namespace senkf::enkf
