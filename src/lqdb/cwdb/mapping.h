#ifndef LQDB_CWDB_MAPPING_H_
#define LQDB_CWDB_MAPPING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/relational/database.h"

namespace lqdb {

/// A mapping `h : C → C`, stored as `h[c] = image of constant c`.
using ConstMapping = std::vector<ConstId>;

/// The identity mapping on `n` constants.
ConstMapping IdentityMapping(size_t n);

/// True iff `h` *respects* the theory of `lb` (§3.1): `h(ci) != h(cj)` for
/// every uniqueness axiom `¬(ci = cj)`.
bool RespectsUniqueness(const CwDatabase& lb, const ConstMapping& h);

/// Builds `h(Ph₁(LB))` (§3.1): domain `h(C)`, constants interpreted by
/// `I(c) = h(c)`, and each relation the `h`-image of the facts.
PhysicalDatabase ApplyMapping(const CwDatabase& lb, const ConstMapping& h);

/// `ApplyMapping` into a caller-owned scratch database, reusing its
/// hash-table and relation capacity across calls — the enumeration hot
/// loops build one image per mapping, and rebuilding the containers from
/// scratch dominates the per-mapping cost. `scratch` must have been
/// constructed against `lb.vocab()` (the same vocabulary object).
void ApplyMappingInto(const CwDatabase& lb, const ConstMapping& h,
                      PhysicalDatabase* scratch);

/// Visitor over mappings; return false to stop the enumeration.
using MappingVisitor = std::function<bool(const ConstMapping&)>;

/// A contiguous slice of the canonical-mapping space, identified by a
/// *restricted-growth-string prefix*: `rgs[i]` is the block index of
/// constant `i` for `i < rgs.size()`, with the usual RGS constraint
/// `rgs[i] ≤ 1 + max(rgs[0..i-1])` (and `rgs[0] = 0`). The range covers
/// every NE-avoiding partition extending that prefix. Ranges produced by
/// `SplitCanonicalMappingSpace` are pairwise disjoint and jointly cover the
/// whole space, so they can be walked by independent workers.
struct MappingRange {
  std::vector<ConstId> rgs;
};

/// Partitions the canonical-mapping space of `lb` into at least
/// `min_ranges` independent ranges when possible (the space may have fewer
/// partitions than that, in which case every range holds one partition).
/// Deepens the shared RGS prefix one constant at a time until the prefix
/// count reaches `min_ranges`, so ranges stay coarse enough to amortize
/// per-range dispatch. With `min_ranges ≤ 1` returns the single full range.
std::vector<MappingRange> SplitCanonicalMappingSpace(const CwDatabase& lb,
                                                     size_t min_ranges);

/// Chunked enumeration of one range for work-stealing schedulers: visits at
/// most `budget` partitions of `range` (0 = unlimited), then hands the
/// *unvisited remainder* of the range back by appending pairwise-disjoint
/// ranges to `*remainder` — the untaken sibling branches of the walk's
/// recursion stack, at most one per constant per level. A worker can thus
/// chew a bounded chunk of an arbitrarily skewed range and donate the rest
/// to a shared queue, bounding serialization at `budget` mappings without
/// ever materializing the (Bell-number-sized) full split. Returns the
/// number visited in this chunk; the remainder is left untouched when the
/// range was exhausted within budget, and also when the visitor stopped the
/// walk (an early exit abandons the whole enumeration, so there is nothing
/// to donate). With `budget` 0 the whole range is walked, and `remainder`
/// may be null.
uint64_t ForEachCanonicalMappingChunk(const CwDatabase& lb,
                                      const MappingRange& range,
                                      uint64_t budget,
                                      const MappingVisitor& visit,
                                      std::vector<MappingRange>* remainder);

/// Enumerates one canonical representative per *kernel partition* of the
/// mappings `h : C → C` that respect the uniqueness axioms. Two mappings
/// with the same kernel (the same "which constants are merged" partition)
/// produce isomorphic image databases, and first-/second-order satisfaction
/// is isomorphism-invariant, so Theorem 1 only needs one representative per
/// NE-avoiding partition. The canonical representative maps every constant
/// to the least constant of its block.
///
/// Returns the number of mappings visited (complete count when no visitor
/// stopped the walk). Equivalent to walking the single range
/// `SplitCanonicalMappingSpace(lb, 1)`.
uint64_t ForEachCanonicalMapping(const CwDatabase& lb,
                                 const MappingVisitor& visit);

/// Enumerates *all* `|C|^|C|` mappings, filtering to those respecting the
/// uniqueness axioms — the literal Theorem 1 quantification, exponentially
/// redundant. Kept for cross-validation (tests) and the E7 ablation bench.
/// Returns the number of respecting mappings visited.
uint64_t ForEachMapping(const CwDatabase& lb, const MappingVisitor& visit);

/// Number of NE-avoiding partitions (canonical mappings) without visiting
/// the image databases. With no uniqueness axioms this is the Bell number
/// B(|C|).
uint64_t CountCanonicalMappings(const CwDatabase& lb);

}  // namespace lqdb

#endif  // LQDB_CWDB_MAPPING_H_
