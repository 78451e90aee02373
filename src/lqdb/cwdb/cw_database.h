#ifndef LQDB_CWDB_CW_DATABASE_H_
#define LQDB_CWDB_CW_DATABASE_H_

#include <map>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "lqdb/logic/vocabulary.h"
#include "lqdb/relational/relation.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// A *closed-world logical database* `LB = (L, T)` in the sense of §2.2 of
/// the paper — Reiter's extended relational theory without types. The
/// stored state is exactly what the paper says suffices:
///
///   1. the **atomic fact axioms** (one tuple per fact), and
///   2. the **uniqueness axioms** `¬(ci = cj)`;
///
/// the **domain closure axiom** and the per-predicate **completion axioms**
/// are determined by these and are emitted on demand by `TheoryOf()`.
///
/// Uniqueness axioms are represented in the virtual-`NE` style of the §5
/// closing remark: each constant is either *known* or *unknown* (the unary
/// relation `U`), all known constants are implicitly pairwise distinct, and
/// explicit distinct pairs (`NE'`) record whatever is known about unknown
/// values. A database with no unknown constants is *fully specified*.
class CwDatabase {
 public:
  CwDatabase() = default;

  // Not copyable (examples/benches pass it by reference); movable.
  CwDatabase(const CwDatabase&) = delete;
  CwDatabase& operator=(const CwDatabase&) = delete;
  CwDatabase(CwDatabase&&) = default;
  CwDatabase& operator=(CwDatabase&&) = default;

  const Vocabulary& vocab() const { return vocab_; }
  /// Mutable access for query building against this database's vocabulary.
  Vocabulary* mutable_vocab() { return &vocab_; }

  /// Adds a constant whose identity is fully known: implicitly distinct
  /// from every other known constant (idempotent; upgrades an unknown
  /// constant of the same name to known).
  ConstId AddKnownConstant(std::string_view name);

  /// Adds a constant with *unknown* identity (a null in Reiter's sense): it
  /// carries no implicit uniqueness axioms. Idempotent; never downgrades a
  /// known constant.
  ConstId AddUnknownConstant(std::string_view name);

  /// Constants interned directly into the vocabulary (e.g. by the query
  /// parser) without going through Add{Known,Unknown}Constant count as
  /// unknown — the conservative default: no uniqueness axioms.
  bool IsKnown(ConstId c) const { return c < known_.size() && known_[c]; }

  /// The unknown constants (the paper's unary relation `U`).
  std::vector<ConstId> UnknownConstants() const;

  /// Declares a schema predicate.
  Result<PredId> AddPredicate(std::string_view name, int arity);

  /// Adds an atomic fact axiom `P(c1, ..., ck)`.
  Status AddFact(PredId pred, Tuple constants);

  /// Convenience: adds the fact by name, interning missing constants as
  /// *known* constants. `InvalidArgument`, with nothing interned, when the
  /// predicate or a constant is not an identifier (`IsIdentifier`,
  /// util/parse.h).
  Status AddFact(std::string_view pred, std::vector<std::string_view> names);

  /// Removes an atomic fact axiom; `NotFound` when the predicate is unknown
  /// or the fact is not stored. Constants are never removed — dropping the
  /// last fact about a constant does not shrink `C` (the domain-closure
  /// axiom still ranges over it).
  Status RemoveFact(PredId pred, const Tuple& constants);

  /// Adds an explicit uniqueness axiom `¬(a = b)` (the `NE'` relation).
  /// Rejected when `a == b` (the theory would be inconsistent).
  Status AddDistinct(ConstId a, ConstId b);
  Status AddDistinct(std::string_view a, std::string_view b);

  /// True iff `¬(a = b)` is a uniqueness axiom (explicitly stored, or
  /// implicit between two known constants).
  bool AreDistinct(ConstId a, ConstId b) const;

  /// The explicitly stored pairs, normalized with first < second.
  const std::set<std::pair<ConstId, ConstId>>& explicit_distinct() const {
    return explicit_distinct_;
  }

  /// All uniqueness axioms, materialized (quadratic in the number of known
  /// constants — see bench E6 for why the virtual form is preferable).
  std::vector<std::pair<ConstId, ConstId>> AllDistinctPairs() const;

  /// Number of uniqueness axioms without materializing them.
  size_t CountDistinctPairs() const;

  /// §2.2: fully specified iff every pair of distinct constant symbols has
  /// a uniqueness axiom.
  bool IsFullySpecified() const;

  /// The atomic facts of `pred` (empty relation when none).
  const Relation& facts(PredId pred) const;

  /// Predicates that have at least one stored fact.
  std::vector<PredId> PredicatesWithFacts() const;

  size_t num_constants() const { return vocab_.num_constants(); }

  /// Total number of stored atomic facts.
  size_t NumFacts() const;

  /// Sanity checks: nonempty constant set (physical models need a nonempty
  /// domain) and in-range fact tuples.
  Status Validate() const;

 private:
  ConstId InternConstant(std::string_view name, bool known);

  Vocabulary vocab_;
  std::vector<bool> known_;  // indexed by ConstId
  std::set<std::pair<ConstId, ConstId>> explicit_distinct_;
  std::map<PredId, Relation> facts_;
};

}  // namespace lqdb

#endif  // LQDB_CWDB_CW_DATABASE_H_
