#ifndef LQDB_RA_FLAT_TABLE_H_
#define LQDB_RA_FLAT_TABLE_H_

#include <cstdint>
#include <cstring>

#include "lqdb/relational/relation.h"
#include "lqdb/relational/tuple.h"
#include "lqdb/util/arena.h"

namespace lqdb {

/// A duplicate-free relation stored as a flat row-major `Value` array plus
/// an open-addressing slot array (linear probing, power-of-two sizes). All
/// storage comes from a `MemArena`, so per-image table churn in the
/// Theorem 1 inner loop is pointer bumps, not malloc/free: `Reset()` keeps
/// the row and slot arrays and only clears the occupancy, and growth
/// re-allocates from the arena (the abandoned arrays stay in the arena
/// until it is destroyed — bounded by doubling, so steady state allocates
/// nothing).
///
/// Row indices are `uint32_t`; `kNone` marks an empty slot. Not
/// thread-safe.
class FlatTable {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  FlatTable() = default;

  /// Empties the table and (re)binds it to `arena` with the given arity.
  /// Capacity is kept when the arena and arity are unchanged — the
  /// cross-image reuse path.
  void Reset(MemArena* arena, uint32_t arity) {
    if (arena_ != arena) {
      arena_ = arena;
      rows_ = nullptr;
      slots_ = nullptr;
      cap_rows_ = 0;
      num_slots_ = 0;
    }
    if (arity != arity_) {
      arity_ = arity;
      rows_ = nullptr;
      cap_rows_ = 0;
    }
    num_rows_ = 0;
    if (num_slots_ > 0) {
      std::memset(slots_, 0xFF, num_slots_ * sizeof(uint32_t));
    }
  }

  uint32_t arity() const { return arity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Row `i` as a pointer to `arity()` contiguous values.
  const Value* row(size_t i) const { return rows_ + size_t{arity_} * i; }

  /// Inserts a row of `arity()` values; returns true when newly inserted.
  bool Insert(const Value* row) {
    if (num_slots_ == 0) Grow();
    size_t i = Hash(row) & (num_slots_ - 1);
    while (slots_[i] != kNone) {
      if (RowEquals(slots_[i], row)) return false;
      i = (i + 1) & (num_slots_ - 1);
    }
    if (num_rows_ == cap_rows_) GrowRows();
    if (arity_ > 0) {
      std::memcpy(rows_ + size_t{arity_} * num_rows_, row,
                  arity_ * sizeof(Value));
    }
    slots_[i] = static_cast<uint32_t>(num_rows_++);
    // Load factor 3/4: rehash before probes cluster.
    if (num_rows_ * 4 >= num_slots_ * 3) Grow();
    return true;
  }

  bool Contains(const Value* row) const {
    if (num_slots_ == 0) return false;
    size_t i = Hash(row) & (num_slots_ - 1);
    while (slots_[i] != kNone) {
      if (RowEquals(slots_[i], row)) return true;
      i = (i + 1) & (num_slots_ - 1);
    }
    return false;
  }

  bool Contains(const Tuple& t) const {
    return t.size() == arity_ && Contains(t.data());
  }

  /// Copies out into a node-based `Relation` (for one-shot `Execute`
  /// callers and tests; the hot loops stay on the flat form).
  Relation ToRelation() const {
    Relation rel(static_cast<int>(arity_));
    for (size_t i = 0; i < num_rows_; ++i) {
      rel.Insert(Tuple(row(i), row(i) + arity_));
    }
    return rel;
  }

  /// FNV-1a over the row values; shared with `JoinIndex` so probe keys and
  /// stored rows hash identically.
  static size_t HashSpan(const Value* v, size_t n) {
    size_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; ++i) {
      h ^= v[i];
      h *= 1099511628211ull;
    }
    return h;
  }

 private:
  size_t Hash(const Value* row) const { return HashSpan(row, arity_); }

  bool RowEquals(uint32_t idx, const Value* r) const {
    const Value* stored = row(idx);
    for (uint32_t c = 0; c < arity_; ++c) {
      if (stored[c] != r[c]) return false;
    }
    return true;
  }

  void GrowRows() {
    const size_t cap = cap_rows_ == 0 ? 64 : cap_rows_ * 2;
    Value* fresh = arena_->NewArray<Value>(cap * arity_);
    if (num_rows_ > 0 && arity_ > 0) {
      std::memcpy(fresh, rows_, num_rows_ * arity_ * sizeof(Value));
    }
    rows_ = fresh;
    cap_rows_ = cap;
  }

  /// Doubles (or initializes) the slot array and re-seats every row.
  void Grow() {
    const size_t fresh_slots = num_slots_ == 0 ? 64 : num_slots_ * 2;
    slots_ = arena_->NewArray<uint32_t>(fresh_slots);
    std::memset(slots_, 0xFF, fresh_slots * sizeof(uint32_t));
    num_slots_ = fresh_slots;
    for (size_t r = 0; r < num_rows_; ++r) {
      size_t i = Hash(row(r)) & (num_slots_ - 1);
      while (slots_[i] != kNone) i = (i + 1) & (num_slots_ - 1);
      slots_[i] = static_cast<uint32_t>(r);
    }
  }

  MemArena* arena_ = nullptr;
  uint32_t arity_ = 0;
  Value* rows_ = nullptr;       // row-major, cap_rows_ * arity_ values
  size_t num_rows_ = 0;
  size_t cap_rows_ = 0;
  uint32_t* slots_ = nullptr;   // row index or kNone; power-of-two length
  size_t num_slots_ = 0;
};

/// A reusable hash multimap from key columns of a `FlatTable` to its row
/// chains, for hash joins: open-addressing head array plus a per-row next
/// chain, both arena-backed and recycled across builds (the per-image join
/// index of the Theorem 1 loop). `Build` is called once per executed join
/// node per image; probes compare the probe key against the build rows'
/// key columns directly, so no key copies are stored.
class JoinIndex {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  JoinIndex() = default;

  void Build(MemArena* arena, const FlatTable* table, const uint32_t* key_cols,
             size_t num_keys) {
    table_ = table;
    key_cols_ = key_cols;
    num_keys_ = num_keys;
    const size_t rows = table->size();
    if (arena_ != arena) {
      arena_ = arena;
      heads_ = nullptr;
      next_ = nullptr;
      num_slots_ = 0;
      next_cap_ = 0;
    }
    size_t want = 64;
    while (want < rows * 2) want <<= 1;
    if (num_slots_ < want) {
      heads_ = arena->NewArray<uint32_t>(want);
      num_slots_ = want;
    }
    std::memset(heads_, 0xFF, num_slots_ * sizeof(uint32_t));
    if (next_cap_ < rows) {
      size_t cap = next_cap_ == 0 ? 64 : next_cap_;
      while (cap < rows) cap *= 2;
      next_ = arena->NewArray<uint32_t>(cap);
      next_cap_ = cap;
    }
    const size_t mask = num_slots_ - 1;
    for (uint32_t r = 0; r < rows; ++r) {
      size_t i = HashRow(r) & mask;
      while (heads_[i] != kNone && !RowsShareKey(heads_[i], r)) {
        i = (i + 1) & mask;
      }
      next_[r] = heads_[i];
      heads_[i] = r;
    }
  }

  /// First build row matching `key` (`num_keys` values), or `kNone`.
  uint32_t First(const Value* key) const {
    const size_t mask = num_slots_ - 1;
    size_t i = FlatTable::HashSpan(key, num_keys_) & mask;
    while (heads_[i] != kNone) {
      if (KeyEquals(heads_[i], key)) return heads_[i];
      i = (i + 1) & mask;
    }
    return kNone;
  }

  /// Next build row in the same key chain, or `kNone`.
  uint32_t Next(uint32_t row) const { return next_[row]; }

 private:
  size_t HashRow(uint32_t r) const {
    const Value* v = table_->row(r);
    size_t h = 1469598103934665603ull;
    for (size_t i = 0; i < num_keys_; ++i) {
      h ^= v[key_cols_[i]];
      h *= 1099511628211ull;
    }
    return h;
  }

  bool KeyEquals(uint32_t r, const Value* key) const {
    const Value* v = table_->row(r);
    for (size_t i = 0; i < num_keys_; ++i) {
      if (v[key_cols_[i]] != key[i]) return false;
    }
    return true;
  }

  bool RowsShareKey(uint32_t a, uint32_t b) const {
    const Value* va = table_->row(a);
    const Value* vb = table_->row(b);
    for (size_t i = 0; i < num_keys_; ++i) {
      if (va[key_cols_[i]] != vb[key_cols_[i]]) return false;
    }
    return true;
  }

  MemArena* arena_ = nullptr;
  const FlatTable* table_ = nullptr;
  const uint32_t* key_cols_ = nullptr;
  size_t num_keys_ = 0;
  uint32_t* heads_ = nullptr;
  size_t num_slots_ = 0;
  uint32_t* next_ = nullptr;
  size_t next_cap_ = 0;
};

}  // namespace lqdb

#endif  // LQDB_RA_FLAT_TABLE_H_
