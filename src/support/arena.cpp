#include "support/arena.hpp"

#include <algorithm>
#include <new>

#include <sanitizer/asan_interface.h>

#include "support/error.hpp"

namespace senkf::support {

namespace {

constexpr std::size_t kMinChunkBytes = std::size_t{64} * 1024;

std::size_t align_up(std::size_t n) {
  return (n + Arena::kAlignment - 1) & ~(Arena::kAlignment - 1);
}

}  // namespace

Arena::~Arena() {
  for (const Chunk& chunk : chunks_) free_chunk(chunk);
}

Arena::Chunk Arena::new_chunk(std::size_t size) {
  Chunk chunk;
  chunk.data = static_cast<std::byte*>(
      ::operator new(size, std::align_val_t{kAlignment}));
  chunk.size = size;
  ASAN_POISON_MEMORY_REGION(chunk.data, chunk.size);
  stats_.chunk_allocs += 1;
  return chunk;
}

void Arena::free_chunk(Chunk chunk) {
  ASAN_UNPOISON_MEMORY_REGION(chunk.data, chunk.size);
  ::operator delete(chunk.data, std::align_val_t{kAlignment});
}

void* Arena::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = kAlignment;  // distinct, aligned, harmless
  bytes = align_up(bytes);
  in_use_ += bytes;
  stats_.high_water_bytes = std::max(stats_.high_water_bytes, in_use_);

  // Bump within the active chunk; on overflow, advance through existing
  // chunks (they survive reset) before growing the list.
  while (active_ < chunks_.size()) {
    if (used_ + bytes <= chunks_[active_].size) {
      void* out = chunks_[active_].data + used_;
      used_ += bytes;
      ASAN_UNPOISON_MEMORY_REGION(out, bytes);
      return out;
    }
    ++active_;
    used_ = 0;
  }
  // Doubling growth bounds the chunk count at log(total); the first
  // chunk is big enough that small analyses never grow at all.
  const std::size_t last = chunks_.empty() ? 0 : chunks_.back().size;
  chunks_.push_back(new_chunk(std::max({bytes, 2 * last, kMinChunkBytes})));
  stats_.capacity_bytes += chunks_.back().size;
  active_ = chunks_.size() - 1;
  used_ = bytes;
  ASAN_UNPOISON_MEMORY_REGION(chunks_.back().data, bytes);
  return chunks_.back().data;
}

Arena::Marker Arena::mark() const {
  Marker marker;
  marker.chunk = active_;
  marker.used = used_;
  marker.in_use = in_use_;
  return marker;
}

void Arena::rewind(const Marker& marker) {
  SENKF_ASSERT(marker.in_use <= in_use_);
  // Everything handed out past the marker dies: re-poison it, from the
  // marker to the end of its chunk and every later chunk bumped since.
  for (std::size_t c = marker.chunk; c <= active_ && c < chunks_.size(); ++c) {
    const std::size_t from = c == marker.chunk ? marker.used : 0;
    ASAN_POISON_MEMORY_REGION(chunks_[c].data + from, chunks_[c].size - from);
  }
  active_ = marker.chunk;
  used_ = marker.used;
  in_use_ = marker.in_use;
}

void Arena::reset() {
  // Consolidate a grown arena into one contiguous chunk of the same
  // total capacity.  A multi-chunk replay walks the chunk list from the
  // start and can straddle boundaries differently than the growth pass
  // did (remainders are skipped), so it may need MORE capacity than the
  // pass that grew it; a single chunk has no boundaries, so anything
  // that ever fit keeps fitting — steady state is reached one reset
  // after the largest shape, permanently.
  if (chunks_.size() > 1) {
    std::size_t total = 0;
    for (const Chunk& chunk : chunks_) {
      total += chunk.size;
      free_chunk(chunk);
    }
    chunks_.assign(1, new_chunk(total));
    stats_.capacity_bytes = total;
  }
  rewind(Marker{});
  stats_.resets += 1;
}

}  // namespace senkf::support
