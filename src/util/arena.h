// Monotonic scratch arena for the analytic kernels.
//
// Every transient solve (spn::TransientStructure::make_scratch for P
// lanes: AbsorbingAnalyzer::solve_batch, solve_from and each
// ReliabilityOde::propagate call) and the point-major reward pass need
// a handful of [state][lane] and [block][lane] scratch matrices per
// solve.  Allocating them from the heap one vector at a time is churn
// the kernels do not need, so scratch comes from this arena instead:
// allocation is a pointer bump, and reset() recycles the whole region
// in O(1) for the next batch.  Chunks are not zero-filled (spans are
// uninitialised unless a fill is asked for), so a fresh arena costs one
// malloc, not a memset of every page.
//
// Growth is chunked: when the current chunk is exhausted a larger one
// is appended, and the NEXT reset() coalesces all chunks into a single
// block of the total capacity — so a long-lived worker converges to one
// allocation that every subsequent batch reuses, whatever batch shape
// arrives.  Spans handed out are valid until the next reset().
//
// Not thread-safe; use one arena per worker thread
// (thread_scratch_arena()).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace midas::util {

class Arena {
 public:
  /// `initial_bytes` pre-reserves the first chunk (0 = allocate lazily).
  explicit Arena(std::size_t initial_bytes = 0);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw allocation, aligned to `alignment` (a power of two).  Never
  /// returns nullptr; grows the arena as needed.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t alignment);

  /// Typed scratch span of `count` elements, uninitialised.  T must be
  /// trivially destructible — the arena never runs destructors.
  template <typename T>
  [[nodiscard]] std::span<T> make_span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena spans are never destroyed element-wise");
    return {static_cast<T*>(allocate(count * sizeof(T), alignof(T))), count};
  }

  /// Typed scratch span, every element set to `fill`.
  template <typename T>
  [[nodiscard]] std::span<T> make_span(std::size_t count, T fill) {
    auto s = make_span<T>(count);
    for (auto& v : s) v = fill;
    return s;
  }

  /// Recycles every allocation (O(1)).  If growth left multiple chunks,
  /// they are coalesced into one block of the combined capacity, so a
  /// steady-state workload allocates from a single region.
  void reset();

  /// Bytes handed out since the last reset().
  [[nodiscard]] std::size_t bytes_used() const noexcept { return used_; }
  /// Total capacity across chunks.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Backing blocks currently held (1 after a post-growth reset()).
  [[nodiscard]] std::size_t num_chunks() const noexcept {
    return chunks_.size();
  }
  /// Largest bytes_used() ever observed (sizing diagnostics).
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void grow(std::size_t min_bytes);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;    // chunk currently bump-allocated from
  std::size_t offset_ = 0;    // bump offset within the active chunk
  std::size_t used_ = 0;      // bytes handed out since reset()
  std::size_t capacity_ = 0;  // Σ chunk sizes
  std::size_t high_water_ = 0;
};

/// The per-thread scratch pool the sweep engine resets once per batch.
/// Lives for the thread's lifetime, so capacity is reused across
/// batches and across evaluate() calls.
[[nodiscard]] Arena& thread_scratch_arena();

}  // namespace midas::util
