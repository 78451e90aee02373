#ifndef LQDB_RA_FLAT_TABLE_H_
#define LQDB_RA_FLAT_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lqdb/relational/relation.h"
#include "lqdb/relational/tuple.h"

namespace lqdb {

/// A duplicate-free relation stored as a flat row-major `Value` array plus
/// an open-addressing slot array (linear probing, power-of-two sizes). Both
/// arrays are vectors the table owns. `Reset()` keeps their capacity and
/// only clears the occupancy, and both grow by doubling from 64 rows and
/// 64 slots, so a table reused across the images of a Theorem 1 sweep
/// stops allocating once it has held its largest image.
///
/// Row indices are `uint32_t`; `kNone` marks an empty slot. Not
/// thread-safe.
class FlatTable {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  FlatTable() = default;

  /// Empties the table and sets its arity, keeping capacity.
  void Reset(uint32_t arity) {
    if (arity != arity_) {
      arity_ = arity;
      rows_.clear();
    }
    num_rows_ = 0;
    std::fill(slots_.begin(), slots_.end(), kNone);
  }

  uint32_t arity() const { return arity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Row `i` as a pointer to `arity()` contiguous values.
  const Value* row(size_t i) const {
    return rows_.data() + size_t{arity_} * i;
  }

  /// Inserts a row of `arity()` values; returns true when newly inserted.
  bool Insert(const Value* row) {
    if (slots_.empty()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = Hash(row) & mask;
    while (slots_[i] != kNone) {
      if (RowEquals(slots_[i], row)) return false;
      i = (i + 1) & mask;
    }
    const size_t at = num_rows_ * arity_;
    if (at + arity_ > rows_.size()) {
      rows_.resize(std::max(size_t{64} * arity_, rows_.size() * 2));
    }
    std::copy(row, row + arity_, rows_.begin() + at);
    slots_[i] = static_cast<uint32_t>(num_rows_++);
    // Load factor 3/4: rehash before probes cluster.
    if (num_rows_ * 4 >= slots_.size() * 3) Grow();
    return true;
  }

  bool Contains(const Value* row) const {
    if (slots_.empty()) return false;
    const size_t mask = slots_.size() - 1;
    size_t i = Hash(row) & mask;
    while (slots_[i] != kNone) {
      if (RowEquals(slots_[i], row)) return true;
      i = (i + 1) & mask;
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

 private:
  size_t Hash(const Value* row) const { return HashValues(row, arity_); }

  // A loop, not std::equal: that lowers to a memcmp call, which costs
  // more than comparing the one to three values of a typical row.
  bool RowEquals(uint32_t idx, const Value* r) const {
    const Value* stored = row(idx);
    for (uint32_t c = 0; c < arity_; ++c) {
      if (stored[c] != r[c]) return false;
    }
    return true;
  }

  /// Doubles (or initializes) the slot array and re-seats every row.
  void Grow() {
    slots_.assign(slots_.empty() ? 64 : slots_.size() * 2, kNone);
    const size_t mask = slots_.size() - 1;
    for (size_t r = 0; r < num_rows_; ++r) {
      size_t i = Hash(row(r)) & mask;
      while (slots_[i] != kNone) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(r);
    }
  }

  uint32_t arity_ = 0;
  std::vector<Value> rows_;  // row-major; row capacity × arity values
  size_t num_rows_ = 0;
  std::vector<uint32_t> slots_;  // row index or kNone; power-of-two length
};

/// A reusable hash multimap from key columns of a `FlatTable` to its row
/// chains, for hash joins: an open-addressing head array plus a per-row
/// next chain, both kept across builds (the per-image join index of the
/// Theorem 1 loop). `Build` is called once per executed join node per
/// image; probes compare the probe key against the build rows' key columns
/// directly, so no key copies are stored.
class JoinIndex {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  JoinIndex() = default;

  void Build(const FlatTable* table, const uint32_t* key_cols,
             size_t num_keys) {
    table_ = table;
    key_cols_ = key_cols;
    num_keys_ = num_keys;
    const size_t rows = table->size();
    size_t want = 64;
    while (want < rows * 2) want <<= 1;
    if (heads_.size() < want) heads_.resize(want);
    std::fill(heads_.begin(), heads_.end(), kNone);
    if (next_.size() < rows) {
      size_t cap = std::max(next_.size(), size_t{64});
      while (cap < rows) cap *= 2;
      next_.resize(cap);
    }
    const size_t mask = heads_.size() - 1;
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
    const size_t mask = heads_.size() - 1;
    size_t i = HashValues(key, num_keys_) & mask;
    while (heads_[i] != kNone) {
      if (KeyEquals(heads_[i], key)) return heads_[i];
      i = (i + 1) & mask;
    }
    return kNone;
  }

  /// Next build row in the same key chain, or `kNone`.
  uint32_t Next(uint32_t row) const { return next_[row]; }

 private:
  /// Hashes row `r`'s key columns in place, as `HashValues` hashes a probe
  /// key holding the same values.
  size_t HashRow(uint32_t r) const {
    const Value* v = table_->row(r);
    uint64_t h = kHashSeed;
    for (size_t i = 0; i < num_keys_; ++i) h = HashStep(h, v[key_cols_[i]]);
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

  const FlatTable* table_ = nullptr;
  const uint32_t* key_cols_ = nullptr;
  size_t num_keys_ = 0;
  std::vector<uint32_t> heads_;  // power-of-two length
  std::vector<uint32_t> next_;
};

}  // namespace lqdb

#endif  // LQDB_RA_FLAT_TABLE_H_
