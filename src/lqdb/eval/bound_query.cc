#include "lqdb/eval/bound_query.h"

#include <algorithm>
#include <set>
#include <utility>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/logic/formula.h"
#include "lqdb/ra/validate.h"

namespace lqdb {

namespace {

void CollectSoPredicates(const FormulaPtr& f, std::set<PredId>* out) {
  if (f->is_second_order_quantifier()) out->insert(f->pred());
  for (const auto& c : f->children()) CollectSoPredicates(c, out);
}

void CollectAtomPredicates(const FormulaPtr& f, std::set<PredId>* out) {
  if (f->kind() == FormulaKind::kAtom) out->insert(f->pred());
  for (const auto& c : f->children()) CollectAtomPredicates(c, out);
}

}  // namespace

Result<BoundQuery> BoundQuery::Bind(const Query& query) {
  if (query.body() == nullptr) {
    return Status::InvalidArgument("null formula");
  }
  for (VarId v : FreeVariables(query.body())) {
    if (std::find(query.head().begin(), query.head().end(), v) ==
        query.head().end()) {
      return Status::InvalidArgument(
          "free variable of the query body is not in the head");
    }
  }
  BoundQuery bound(&query);
  const std::set<ConstId> constants = ConstantsOf(query.body());
  bound.constants_.assign(constants.begin(), constants.end());
  std::set<PredId> so_preds;
  CollectSoPredicates(query.body(), &so_preds);
  bound.so_predicates_.assign(so_preds.begin(), so_preds.end());
  std::set<PredId> preds;
  CollectAtomPredicates(query.body(), &preds);
  bound.predicates_.assign(preds.begin(), preds.end());
  return bound;
}

Status BoundQuery::CompileRaPlan(const Vocabulary& vocab,
                                 const RaCardinalities* stats) {
  if (ra_attempted_) return ra_status_;
  ra_attempted_ = true;
  RaCompiler compiler(&vocab, stats == nullptr ? RaCardinalities() : *stats);
  Result<PlanPtr> plan = compiler.Compile(*query_);
  if (!plan.ok()) return ra_status_ = plan.status();
  Result<ReducedPlan> reduced = SemijoinReduce(*plan);
  if (!reduced.ok()) return ra_status_ = reduced.status();
#ifndef NDEBUG
  // A plan the compiler or the reduction produced must pass the static
  // validator; a finding is a library bug, not a user error. The
  // differential corpus validates the same plans in every build mode.
  PlanValidateOptions vopts;
  vopts.vocab = &vocab;
  Status verdict = ValidatePlan(*plan, vopts);
  if (verdict.ok()) {
    vopts.param = reduced->param.get();
    verdict = ValidatePlan(reduced->plan, vopts);
  }
  if (!verdict.ok()) {
    return ra_status_ = Status::Internal(
               "compiled plan failed static validation: " + verdict.message());
  }
#endif
  ra_plan_ = std::move(plan).value();
  ra_reduced_ = std::move(reduced).value();
  return ra_status_;
}

RaCardinalities RaCardinalitiesFor(const CwDatabase& lb, size_t dp_join_cap) {
  RaCardinalities stats;
  stats.domain_size = static_cast<double>(lb.num_constants());
  stats.relation_sizes.assign(lb.vocab().num_predicates(), 0.0);
  for (PredId p : lb.PredicatesWithFacts()) {
    stats.relation_sizes[p] = static_cast<double>(lb.facts(p).size());
  }
  stats.dp_join_cap = dp_join_cap;
  return stats;
}

}  // namespace lqdb
