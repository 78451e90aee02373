#include "lqdb/relational/database.h"

#include <cassert>

namespace lqdb {

void PhysicalDatabase::Clear() {
  domain_.clear();
  domain_set_.clear();
  constants_.clear();
  for (auto& [pred, rel] : relations_) {
    (void)pred;
    rel.Clear();
  }
  ++version_;
}

Status PhysicalDatabase::SetConstant(ConstId c, Value v) {
  if (!InDomain(v)) {
    return Status::InvalidArgument(
        "constant must be assigned a value inside the domain");
  }
  constants_[c] = v;
  ++version_;
  return Status::OK();
}

void PhysicalDatabase::InterpretConstantsAsThemselves() {
  for (ConstId c = 0; c < vocab_->num_constants(); ++c) {
    AddDomainValue(c);
    constants_[c] = c;
  }
  ++version_;
}

Value PhysicalDatabase::ConstantValue(ConstId c) const {
  auto it = constants_.find(c);
  assert(it != constants_.end() && "constant has no assigned value");
  return it->second;
}

Result<Value> PhysicalDatabase::LookupConstant(ConstId c) const {
  auto it = constants_.find(c);
  if (it == constants_.end()) {
    return Status::FailedPrecondition(
        "constant '" + vocab_->ConstantName(c) +
        "' has no interpretation in this database (was it added after "
        "the database was built?)");
  }
  return it->second;
}

Status PhysicalDatabase::AddTuple(PredId pred, Tuple t) {
  if (pred >= vocab_->num_predicates()) {
    return Status::NotFound("unknown predicate id");
  }
  int arity = vocab_->PredicateArity(pred);
  if (static_cast<int>(t.size()) != arity) {
    return Status::InvalidArgument(
        "tuple arity does not match predicate '" +
        vocab_->PredicateName(pred) + "'");
  }
  for (Value v : t) {
    if (!InDomain(v)) {
      return Status::InvalidArgument("tuple value outside the domain");
    }
  }
  auto it = relations_.find(pred);
  if (it == relations_.end()) {
    it = relations_.emplace(pred, Relation(arity)).first;
  }
  it->second.Insert(std::move(t));
  ++version_;
  return Status::OK();
}

Status PhysicalDatabase::SetRelation(PredId pred, Relation rel) {
  if (pred >= vocab_->num_predicates()) {
    return Status::NotFound("unknown predicate id");
  }
  if (rel.arity() != vocab_->PredicateArity(pred)) {
    return Status::InvalidArgument("relation arity mismatch for '" +
                                   vocab_->PredicateName(pred) + "'");
  }
  relations_.insert_or_assign(pred, std::move(rel));
  ++version_;
  return Status::OK();
}

const Relation& PhysicalDatabase::relation(PredId pred) const {
  auto it = relations_.find(pred);
  if (it != relations_.end()) return it->second;
  // Factless predicates are empty under the closed-world completion.
  static thread_local std::map<int, Relation> empty_by_arity;
  int arity = vocab_->PredicateArity(pred);
  auto eit = empty_by_arity.find(arity);
  if (eit == empty_by_arity.end()) {
    eit = empty_by_arity.emplace(arity, Relation(arity)).first;
  }
  return eit->second;
}

std::vector<PredId> PhysicalDatabase::StoredPredicates() const {
  std::vector<PredId> out;
  out.reserve(relations_.size());
  for (const auto& [pred, rel] : relations_) {
    (void)rel;
    out.push_back(pred);
  }
  return out;
}

Status PhysicalDatabase::Validate() const {
  if (domain_.empty()) {
    return Status::FailedPrecondition("domain must be nonempty");
  }
  // Note: constants interned into the shared vocabulary *after* this
  // database was built (e.g. while parsing a later query) may legitimately
  // lack a value here; the evaluator rejects formulas that mention an
  // uninterpreted constant at evaluation time instead.
  return Status::OK();
}

std::string PhysicalDatabase::ValueName(Value v) const {
  if (v < vocab_->num_constants()) return vocab_->ConstantName(v);
  return "d" + std::to_string(v);
}

std::string PhysicalDatabase::ToString() const {
  std::string out = "domain = {";
  for (size_t i = 0; i < domain_.size(); ++i) {
    if (i > 0) out += ", ";
    out += ValueName(domain_[i]);
  }
  out += "}\n";
  for (const auto& [pred, rel] : relations_) {
    out += vocab_->PredicateName(pred);
    out += " = {";
    bool first = true;
    for (const Tuple& t : rel.SortedTuples()) {
      if (!first) out += ", ";
      first = false;
      out += TupleToString(t, [this](Value v) { return ValueName(v); });
    }
    out += "}\n";
  }
  return out;
}

}  // namespace lqdb
