#include "lqdb/cwdb/cw_database.h"

#include <cassert>
#include <string>

#include "lqdb/util/parse.h"

namespace lqdb {

ConstId CwDatabase::InternConstant(std::string_view name, bool known) {
  ConstId c = vocab_.AddConstant(name);
  if (c >= known_.size()) known_.resize(c + 1, false);
  if (known) known_[c] = true;
  return c;
}

ConstId CwDatabase::AddKnownConstant(std::string_view name) {
  return InternConstant(name, /*known=*/true);
}

ConstId CwDatabase::AddUnknownConstant(std::string_view name) {
  return InternConstant(name, /*known=*/false);
}

std::vector<ConstId> CwDatabase::UnknownConstants() const {
  std::vector<ConstId> out;
  for (ConstId c = 0; c < vocab_.num_constants(); ++c) {
    if (!IsKnown(c)) out.push_back(c);
  }
  return out;
}

Result<PredId> CwDatabase::AddPredicate(std::string_view name, int arity) {
  return vocab_.AddPredicate(name, arity);
}

Status CwDatabase::AddFact(PredId pred, Tuple constants) {
  if (pred >= vocab_.num_predicates()) {
    return Status::NotFound("unknown predicate id");
  }
  int arity = vocab_.PredicateArity(pred);
  if (static_cast<int>(constants.size()) != arity) {
    return Status::InvalidArgument("fact arity mismatch for '" +
                                   vocab_.PredicateName(pred) + "'");
  }
  for (Value v : constants) {
    if (v >= vocab_.num_constants()) {
      return Status::InvalidArgument("fact references unknown constant id");
    }
  }
  auto it = facts_.find(pred);
  if (it == facts_.end()) it = facts_.emplace(pred, Relation(arity)).first;
  it->second.Insert(std::move(constants));
  return Status::OK();
}

Status CwDatabase::AddFact(std::string_view pred,
                           std::vector<std::string_view> names) {
  // Checked before anything is interned, so a rejected fact leaves the
  // vocabulary as it was.
  if (!IsIdentifier(pred)) {
    return Status::InvalidArgument("bad predicate name '" + std::string(pred) +
                                   "'");
  }
  for (std::string_view n : names) {
    if (!IsIdentifier(n)) {
      return Status::InvalidArgument("bad constant name '" + std::string(n) +
                                     "'");
    }
  }
  LQDB_ASSIGN_OR_RETURN(
      PredId p, vocab_.AddPredicate(pred, static_cast<int>(names.size())));
  Tuple t;
  t.reserve(names.size());
  for (std::string_view n : names) {
    // New names intern as known constants; existing constants keep their
    // declared status (facts about an unknown value must not silently
    // manufacture uniqueness axioms for it).
    ConstId c = vocab_.FindConstant(n);
    t.push_back(c != Vocabulary::kNotFound ? c : AddKnownConstant(n));
  }
  return AddFact(p, std::move(t));
}

Status CwDatabase::RemoveFact(PredId pred, const Tuple& constants) {
  if (pred >= vocab_.num_predicates()) {
    return Status::NotFound("unknown predicate id");
  }
  auto it = facts_.find(pred);
  if (it == facts_.end() || !it->second.Erase(constants)) {
    return Status::NotFound("fact is not stored");
  }
  return Status::OK();
}

Status CwDatabase::AddDistinct(ConstId a, ConstId b) {
  if (a >= vocab_.num_constants() || b >= vocab_.num_constants()) {
    return Status::NotFound("unknown constant id in uniqueness axiom");
  }
  if (a == b) {
    return Status::InvalidArgument(
        "uniqueness axiom not(" + vocab_.ConstantName(a) + " = " +
        vocab_.ConstantName(a) + ") would make the theory inconsistent");
  }
  explicit_distinct_.insert({std::min(a, b), std::max(a, b)});
  return Status::OK();
}

Status CwDatabase::AddDistinct(std::string_view a, std::string_view b) {
  ConstId ca = vocab_.FindConstant(a);
  ConstId cb = vocab_.FindConstant(b);
  if (ca == Vocabulary::kNotFound || cb == Vocabulary::kNotFound) {
    return Status::NotFound("uniqueness axiom references unknown constant");
  }
  return AddDistinct(ca, cb);
}

bool CwDatabase::AreDistinct(ConstId a, ConstId b) const {
  if (a == b) return false;
  if (IsKnown(a) && IsKnown(b)) return true;
  return explicit_distinct_.count({std::min(a, b), std::max(a, b)}) > 0;
}

std::vector<std::pair<ConstId, ConstId>> CwDatabase::AllDistinctPairs() const {
  std::vector<std::pair<ConstId, ConstId>> out;
  const ConstId n = static_cast<ConstId>(vocab_.num_constants());
  for (ConstId a = 0; a < n; ++a) {
    for (ConstId b = a + 1; b < n; ++b) {
      if (AreDistinct(a, b)) out.push_back({a, b});
    }
  }
  return out;
}

size_t CwDatabase::CountDistinctPairs() const {
  size_t known_count = 0;
  for (ConstId c = 0; c < vocab_.num_constants(); ++c) {
    if (IsKnown(c)) ++known_count;
  }
  size_t count = known_count * (known_count - 1) / 2;
  // Explicit pairs between two known constants are already counted.
  for (const auto& [a, b] : explicit_distinct_) {
    if (!(IsKnown(a) && IsKnown(b))) ++count;
  }
  return count;
}

bool CwDatabase::IsFullySpecified() const {
  const ConstId n = static_cast<ConstId>(vocab_.num_constants());
  for (ConstId u : UnknownConstants()) {
    for (ConstId c = 0; c < n; ++c) {
      if (c != u && !AreDistinct(u, c)) return false;
    }
  }
  return true;
}

const Relation& CwDatabase::facts(PredId pred) const {
  auto it = facts_.find(pred);
  if (it != facts_.end()) return it->second;
  static thread_local std::map<int, Relation> empty_by_arity;
  int arity = vocab_.PredicateArity(pred);
  auto eit = empty_by_arity.find(arity);
  if (eit == empty_by_arity.end()) {
    eit = empty_by_arity.emplace(arity, Relation(arity)).first;
  }
  return eit->second;
}

std::vector<PredId> CwDatabase::PredicatesWithFacts() const {
  std::vector<PredId> out;
  for (const auto& [pred, rel] : facts_) {
    if (!rel.empty()) out.push_back(pred);
  }
  return out;
}

size_t CwDatabase::NumFacts() const {
  size_t n = 0;
  for (const auto& [pred, rel] : facts_) {
    (void)pred;
    n += rel.size();
  }
  return n;
}

Status CwDatabase::Validate() const {
  if (vocab_.num_constants() == 0) {
    return Status::FailedPrecondition(
        "a CW logical database needs at least one constant (models must "
        "have a nonempty domain)");
  }
  return Status::OK();
}

}  // namespace lqdb
