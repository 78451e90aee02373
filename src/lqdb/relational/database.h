#ifndef LQDB_RELATIONAL_DATABASE_H_
#define LQDB_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lqdb/logic/vocabulary.h"
#include "lqdb/relational/relation.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// A *physical database* `(L, I)` in the sense of §2.1: a finite
/// interpretation of a relational vocabulary — a nonempty finite domain, an
/// assignment of a domain value to every constant symbol, and a relation of
/// the right arity for every interpreted predicate symbol. Equality is
/// interpreted as identity on the domain and is built into the evaluator.
///
/// Predicates without an explicit relation are interpreted as empty — this
/// matches the closed-world completion axiom for factless predicates and
/// lets formulas over extended vocabularies (§3.2) evaluate directly.
class PhysicalDatabase {
 public:
  /// The database borrows `vocab`, which must outlive it.
  explicit PhysicalDatabase(const Vocabulary* vocab) : vocab_(vocab) {}

  // Copyable and movable, but not assignable: an assignment would replace
  // the contents without a new `version()`, so a reader keeping a copy of
  // them could not tell.
  PhysicalDatabase(const PhysicalDatabase&) = default;
  PhysicalDatabase(PhysicalDatabase&&) = default;
  PhysicalDatabase& operator=(const PhysicalDatabase&) = delete;
  PhysicalDatabase& operator=(PhysicalDatabase&&) = delete;

  const Vocabulary& vocab() const { return *vocab_; }

  /// Adds `v` to the domain (idempotent).
  void AddDomainValue(Value v) {
    if (domain_set_.insert(v).second) {
      domain_.push_back(v);
      ++version_;
    }
  }

  /// Empties the domain, the constant assignment and every relation while
  /// keeping container capacity, so the database can serve as reusable
  /// scratch in per-mapping hot loops (see `ApplyMappingInto`). Stored
  /// relations stay present but empty — semantically identical to absent
  /// ones under the closed-world reading of `relation()`.
  void Clear();

  /// Domain values in insertion order.
  const std::vector<Value>& domain() const { return domain_; }
  bool InDomain(Value v) const { return domain_set_.count(v) > 0; }
  size_t domain_size() const { return domain_.size(); }

  /// Assigns constant symbol `c` to domain value `v` (which must already be
  /// in the domain).
  Status SetConstant(ConstId c, Value v);

  /// Interprets every constant symbol of the vocabulary as "itself" and puts
  /// all constants in the domain — the identity interpretation used by the
  /// Ph₁/Ph₂ constructions.
  void InterpretConstantsAsThemselves();

  /// The value assigned to `c`. Precondition: `c` was assigned.
  Value ConstantValue(ConstId c) const;
  /// The value assigned to `c`, or `FailedPrecondition` when `c` has none —
  /// a constant interned into the shared vocabulary after the database was
  /// built (e.g. by parsing a later query). Every engine that reads a
  /// query's constants reports this one status.
  Result<Value> LookupConstant(ConstId c) const;

  /// Adds tuple `t` to the relation of `pred`, creating the relation on
  /// first use. All values must be in the domain and the tuple arity must
  /// match the predicate arity.
  Status AddTuple(PredId pred, Tuple t);

  /// Replaces the relation of `pred` wholesale (arity checked).
  Status SetRelation(PredId pred, Relation rel);

  /// The relation of `pred`, or an empty relation of the right arity when
  /// no tuple was ever added.
  const Relation& relation(PredId pred) const;

  bool HasRelation(PredId pred) const { return relations_.count(pred) > 0; }

  /// Ids of predicates with a stored (possibly empty) relation.
  std::vector<PredId> StoredPredicates() const;

  /// Validates the structural invariant §2.1 requires of every finite
  /// interpretation: a nonempty domain. Totality of the constant
  /// assignment is enforced per formula by the evaluator (see
  /// `Evaluator::SatisfiesWith`), so that interning new constants into the
  /// shared vocabulary does not retroactively invalidate the database.
  Status Validate() const;

  /// Human-readable dump (for examples and debugging).
  std::string ToString() const;

  /// Changes with every mutation (domain, constants or relations), so a
  /// reader that keeps a copy of the contents (`RaExecutor`) can tell when
  /// to re-read them.
  uint64_t version() const { return version_; }

  /// Name of a domain value: the constant name when the value lies in the
  /// constant-id space, else `d<value>`.
  std::string ValueName(Value v) const;

 private:
  const Vocabulary* vocab_;
  std::vector<Value> domain_;
  std::unordered_set<Value> domain_set_;
  std::unordered_map<ConstId, Value> constants_;
  std::map<PredId, Relation> relations_;
  uint64_t version_ = 0;
};

}  // namespace lqdb

#endif  // LQDB_RELATIONAL_DATABASE_H_
