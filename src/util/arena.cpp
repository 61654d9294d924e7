#include "util/arena.h"

#include <algorithm>
#include <cstdint>

namespace midas::util {

namespace {
constexpr std::size_t kMinChunk = 1 << 16;  // 64 KiB
}

Arena::Arena(std::size_t initial_bytes) {
  if (initial_bytes > 0) grow(initial_bytes);
}

void* Arena::allocate(std::size_t bytes, std::size_t alignment) {
  if (bytes == 0) bytes = 1;  // distinct non-null pointers for empty spans
  for (;;) {
    while (active_ < chunks_.size()) {
      Chunk& c = chunks_[active_];
      const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
      const std::size_t aligned =
          (base + offset_ + (alignment - 1)) & ~(alignment - 1);
      const std::size_t start = static_cast<std::size_t>(aligned - base);
      if (start + bytes <= c.size) {
        used_ += (start - offset_) + bytes;  // alignment slack + payload
        offset_ = start + bytes;
        high_water_ = std::max(high_water_, used_);
        return c.data.get() + start;
      }
      ++active_;
      offset_ = 0;
    }
    grow(bytes + alignment);
  }
}

void Arena::grow(std::size_t min_bytes) {
  const std::size_t size =
      std::max({min_bytes, kMinChunk, capacity_ * 2});
  chunks_.push_back({std::make_unique_for_overwrite<std::byte[]>(size), size});
  capacity_ += size;
  active_ = chunks_.size() - 1;
  offset_ = 0;
}

void Arena::reset() {
  if (chunks_.size() > 1) {
    // Coalesce: one block of the combined capacity replaces the chain,
    // so the next batch bump-allocates from a single region.
    const std::size_t total = capacity_;
    chunks_.clear();
    capacity_ = 0;
    grow(total);
  }
  active_ = 0;
  offset_ = 0;
  used_ = 0;
}

Arena& thread_scratch_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace midas::util
