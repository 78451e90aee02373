#ifndef LQDB_UTIL_ARENA_H_
#define LQDB_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace lqdb {

/// A block bump allocator for scratch memory: allocations are pointer
/// bumps into a chain of fixed-size blocks, all freed together when the
/// arena is destroyed. Its one user is `RaExecutor`, whose flat tables
/// (`FlatTable`) take their row and slot arrays from the executor's arena,
/// so the per-image table churn of the Theorem 1 sweep allocates no new
/// memory in the steady state.
///
/// Not thread-safe; each executor owns its arena.
class MemArena {
 public:
  /// `block_bytes` is the size of each chained block; oversized requests
  /// get a dedicated block of exactly their size.
  explicit MemArena(size_t block_bytes = 64 * 1024)
      : block_bytes_(block_bytes == 0 ? 1 : block_bytes) {}

  MemArena(const MemArena&) = delete;
  MemArena& operator=(const MemArena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two). Zero
  /// byte requests return a valid non-null pointer.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    uintptr_t p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    if (p + bytes > limit_ || cursor_ == 0) {
      NewBlock(bytes + align);
      p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    }
    cursor_ = p + bytes;
    bytes_allocated_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  /// Uninitialized storage for `n` objects of trivially destructible `T`
  /// (the arena never runs destructors).
  template <typename T>
  T* NewArray(size_t n) {
    static_assert(std::is_trivially_destructible<T>::value,
                  "MemArena never runs destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Bytes handed out since construction (excludes alignment padding).
  size_t bytes_allocated() const { return bytes_allocated_; }

  /// Blocks currently owned (a steady-state per-query workload stays at 1).
  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size;
  };

  void NewBlock(size_t min_bytes) {
    const size_t size = min_bytes > block_bytes_ ? min_bytes : block_bytes_;
    blocks_.push_back(Block{std::unique_ptr<char[]>(new char[size]), size});
    cursor_ = reinterpret_cast<uintptr_t>(blocks_.back().data.get());
    limit_ = cursor_ + size;
  }

  size_t block_bytes_;
  std::vector<Block> blocks_;
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t bytes_allocated_ = 0;
};

}  // namespace lqdb

#endif  // LQDB_UTIL_ARENA_H_
