#include "lqdb/eval/evaluator.h"

#include <cassert>

namespace lqdb {

Evaluator::Evaluator(const PhysicalDatabase* db, EvalOptions options)
    : db_(db), options_(options) {
  EnsureEnvCapacity();
}

void Evaluator::EnsureEnvCapacity() {
  size_t need = db_->vocab().num_variables();
  if (env_.size() < need) env_.resize(need, kUnbound);
}

Status Evaluator::CheckSoPredFeasible(PredId pred) const {
  int arity = db_->vocab().PredicateArity(pred);
  double space = 1.0;
  for (int i = 0; i < arity; ++i) {
    space *= static_cast<double>(db_->domain_size());
  }
  if (space > static_cast<double>(options_.max_so_tuple_space)) {
    return Status::ResourceExhausted(
        "second-order quantifier over predicate '" +
        db_->vocab().PredicateName(pred) + "' spans " +
        std::to_string(space) + " tuples; limit is " +
        std::to_string(options_.max_so_tuple_space));
  }
  return Status::OK();
}

Status Evaluator::CheckSoFeasible(const FormulaPtr& f) const {
  if (f->is_second_order_quantifier()) {
    LQDB_RETURN_IF_ERROR(CheckSoPredFeasible(f->pred()));
  }
  for (const auto& c : f->children()) {
    LQDB_RETURN_IF_ERROR(CheckSoFeasible(c));
  }
  return Status::OK();
}

Result<bool> Evaluator::Satisfies(const FormulaPtr& sentence) {
  return SatisfiesWith(sentence, {});
}

namespace {

/// Every constant mentioned by a formula must be interpreted by the
/// database — constants interned into the vocabulary *after* the database
/// was built (e.g. by parsing a later query) have no assigned value. The
/// per-call formula walk (`SatisfiesWith`) and the cached constant list of
/// the batched path both report `LookupConstant`'s status, so their errors
/// stay identical.
Status CheckConstantsInterpreted(const PhysicalDatabase& db,
                                 const FormulaPtr& f) {
  for (ConstId c : ConstantsOf(f)) {
    LQDB_RETURN_IF_ERROR(db.LookupConstant(c).status());
  }
  return Status::OK();
}

}  // namespace

Result<bool> Evaluator::SatisfiesWith(const FormulaPtr& f,
                                      const std::map<VarId, Value>& binding) {
  if (f == nullptr) return Status::InvalidArgument("null formula");
  LQDB_RETURN_IF_ERROR(db_->Validate());
  LQDB_RETURN_IF_ERROR(CheckConstantsInterpreted(*db_, f));
  LQDB_RETURN_IF_ERROR(CheckSoFeasible(f));
  for (VarId v : FreeVariables(f)) {
    if (binding.count(v) == 0) {
      return Status::InvalidArgument("free variable '" +
                                     db_->vocab().VariableName(v) +
                                     "' is not bound");
    }
  }
  EnsureEnvCapacity();
  for (const auto& [v, val] : binding) {
    if (v >= env_.size()) env_.resize(v + 1, kUnbound);
    env_[v] = val;
  }
  bool result = Eval(f.get());
  for (const auto& [v, val] : binding) {
    (void)val;
    env_[v] = kUnbound;
  }
  return result;
}

Status Evaluator::SatisfiesBatch(const BoundQuery& bound, const Value* values,
                                 size_t count, std::vector<char>* out) {
  LQDB_RETURN_IF_ERROR(db_->Validate());
  for (ConstId c : bound.constants()) {
    LQDB_RETURN_IF_ERROR(db_->LookupConstant(c).status());
  }
  for (PredId pred : bound.so_predicates()) {
    LQDB_RETURN_IF_ERROR(CheckSoPredFeasible(pred));
  }
  EnsureEnvCapacity();
  const std::vector<VarId>& head = bound.head();
  for (VarId v : head) {
    if (v >= env_.size()) env_.resize(v + 1, kUnbound);
  }
  const size_t arity = head.size();
  const Formula* body = bound.query().body().get();
  out->resize(count);
  for (size_t k = 0; k < count; ++k) {
    const Value* row = values + k * arity;
    for (size_t i = 0; i < arity; ++i) env_[head[i]] = row[i];
    (*out)[k] = Eval(body) ? 1 : 0;
  }
  for (VarId v : head) env_[v] = kUnbound;
  return Status::OK();
}

Result<Relation> Evaluator::Answer(const Query& query) {
  LQDB_RETURN_IF_ERROR(db_->Validate());
  LQDB_RETURN_IF_ERROR(CheckConstantsInterpreted(*db_, query.body()));
  LQDB_RETURN_IF_ERROR(CheckSoFeasible(query.body()));
  EnsureEnvCapacity();
  for (VarId v : query.head()) {
    if (v >= env_.size()) env_.resize(v + 1, kUnbound);
  }

  const std::vector<Value>& domain = db_->domain();
  const size_t arity = query.arity();
  Relation answer(static_cast<int>(arity));

  // Odometer over domain^arity.
  std::vector<size_t> idx(arity, 0);
  while (true) {
    for (size_t i = 0; i < arity; ++i) env_[query.head()[i]] = domain[idx[i]];
    if (Eval(query.body().get())) {
      Tuple t(arity);
      for (size_t i = 0; i < arity; ++i) t[i] = domain[idx[i]];
      answer.Insert(std::move(t));
    }
    size_t pos = 0;
    while (pos < arity && ++idx[pos] == domain.size()) {
      idx[pos] = 0;
      ++pos;
    }
    if (pos == arity) break;
    if (arity == 0) break;
  }
  for (VarId v : query.head()) env_[v] = kUnbound;
  return answer;
}

Value Evaluator::Resolve(const Term& t) const {
  if (t.is_constant()) return db_->ConstantValue(t.constant());
  assert(t.var() < env_.size() && env_[t.var()] != kUnbound &&
         "unbound variable during evaluation");
  return env_[t.var()];
}

bool Evaluator::Eval(const Formula* f) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kEquals:
      return Resolve(f->terms()[0]) == Resolve(f->terms()[1]);
    case FormulaKind::kAtom: {
      Tuple args(f->terms().size());
      for (size_t i = 0; i < f->terms().size(); ++i) {
        args[i] = Resolve(f->terms()[i]);
      }
      auto so_it = so_env_.find(f->pred());
      if (so_it != so_env_.end()) return so_it->second.Contains(args);
      if (provider_ != nullptr && provider_->Provides(f->pred())) {
        return provider_->Contains(f->pred(), args);
      }
      return db_->relation(f->pred()).Contains(args);
    }
    case FormulaKind::kNot:
      return !Eval(f->child().get());
    case FormulaKind::kAnd:
      for (const auto& c : f->children()) {
        if (!Eval(c.get())) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const auto& c : f->children()) {
        if (Eval(c.get())) return true;
      }
      return false;
    case FormulaKind::kImplies:
      return !Eval(f->child(0).get()) || Eval(f->child(1).get());
    case FormulaKind::kIff:
      return Eval(f->child(0).get()) == Eval(f->child(1).get());
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      const bool is_exists = f->kind() == FormulaKind::kExists;
      VarId v = f->var();
      if (v >= env_.size()) env_.resize(v + 1, kUnbound);
      Value saved = env_[v];
      bool result = !is_exists;
      for (Value d : db_->domain()) {
        env_[v] = d;
        bool sub = Eval(f->child().get());
        if (sub == is_exists) {
          result = is_exists;
          break;
        }
      }
      env_[v] = saved;
      return result;
    }
    case FormulaKind::kExistsPred:
    case FormulaKind::kForallPred:
      return EvalSoQuantifier(f);
  }
  assert(false && "unreachable");
  return false;
}

bool Evaluator::EvalSoQuantifier(const Formula* f) {
  const bool is_exists = f->kind() == FormulaKind::kExistsPred;
  const PredId pred = f->pred();
  const int arity = db_->vocab().PredicateArity(pred);

  // Materialize the tuple space D^arity (feasibility pre-checked).
  std::vector<Tuple> space;
  std::vector<size_t> idx(arity, 0);
  const std::vector<Value>& domain = db_->domain();
  while (true) {
    Tuple t(arity);
    for (int i = 0; i < arity; ++i) t[i] = domain[idx[i]];
    space.push_back(std::move(t));
    int pos = 0;
    while (pos < arity && ++idx[pos] == domain.size()) {
      idx[pos] = 0;
      ++pos;
    }
    if (pos == arity) break;
    if (arity == 0) break;
  }
  assert(space.size() <= 63 && "SO tuple space too large (pre-check failed)");

  // Shadow any outer binding of the same predicate variable.
  auto prev = so_env_.find(pred);
  bool had_prev = prev != so_env_.end();
  Relation saved = had_prev ? prev->second : Relation(arity);

  bool result = !is_exists;
  const uint64_t limit = 1ull << space.size();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    Relation rel(arity);
    for (size_t i = 0; i < space.size(); ++i) {
      if (mask & (1ull << i)) rel.Insert(space[i]);
    }
    so_env_.insert_or_assign(pred, std::move(rel));
    bool sub = Eval(f->child().get());
    if (sub == is_exists) {
      result = is_exists;
      break;
    }
  }
  if (had_prev) {
    so_env_.insert_or_assign(pred, std::move(saved));
  } else {
    so_env_.erase(pred);
  }
  return result;
}

}  // namespace lqdb
