#ifndef LQDB_UTIL_ARENA_H_
#define LQDB_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace lqdb {

/// A block bump allocator for scratch memory: allocations are pointer
/// bumps into a chain of fixed-size blocks, and `Reset()` recycles the
/// whole chain at once instead of freeing object by object (the deeb
/// allocation model, a `Mem_Arena` per query cleared on close). Its one
/// user is `RaExecutor`, whose flat tables (`FlatTable`) take their row
/// and slot arrays from the executor's arena, so the per-image table churn
/// of the Theorem 1 sweep allocates no new memory in the steady state.
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

  /// Copies `s` (NUL-terminated) into the arena.
  const char* CopyString(const char* s, size_t len) {
    char* out = NewArray<char>(len + 1);
    std::memcpy(out, s, len);
    out[len] = '\0';
    return out;
  }

  /// Recycles every allocation: keeps the first (largest-lived) block for
  /// reuse, frees the rest. After `Reset` the arena is as cheap as freshly
  /// constructed but its first block's capacity is warm.
  void Reset() {
    if (blocks_.size() > 1) blocks_.resize(1);
    if (!blocks_.empty()) {
      cursor_ = reinterpret_cast<uintptr_t>(blocks_.front().data.get());
      limit_ = cursor_ + blocks_.front().size;
    } else {
      cursor_ = 0;
      limit_ = 0;
    }
    bytes_allocated_ = 0;
  }

  /// Bytes handed out since construction or the last `Reset` (excludes
  /// alignment padding).
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
