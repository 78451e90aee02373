#include "lqdb/exact/ra_exact.h"

#include <cassert>
#include <string>
#include <utility>

#include "lqdb/logic/printer.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/validate.h"

namespace lqdb {

namespace {

/// Join-ordering statistics from the logical database: image relations are
/// h-images of the fact sets and the image domain is `h(C)`, so the fact
/// counts and `|C|` upper-bound (and in the canonical identity mapping,
/// equal) the per-image cardinalities the plan will see.
RaCardinalities StatsFor(const CwDatabase& lb, const ExactOptions& options) {
  RaCardinalities stats;
  stats.domain_size = static_cast<double>(lb.num_constants());
  stats.relation_sizes.assign(lb.vocab().num_predicates(), 0.0);
  for (PredId p : lb.PredicatesWithFacts()) {
    stats.relation_sizes[p] = static_cast<double>(lb.facts(p).size());
  }
  stats.dp_join_cap = options.ra_dp_join_cap;
  return stats;
}

/// Query identity for the plan cache: head order + printed body.
std::string CacheKey(const Vocabulary& vocab, const Query& query) {
  std::string key = "(";
  for (size_t i = 0; i < query.head().size(); ++i) {
    if (i > 0) key += ", ";
    key += vocab.VariableName(query.head()[i]);
  }
  key += ") . ";
  key += PrintFormula(vocab, query.body());
  return key;
}

}  // namespace

const ReducedPlan& RaExactEvaluator::ReducedFor(const PlanPtr& plan) {
  auto it = reduced_cache_.find(plan.get());
  if (it != reduced_cache_.end() && !it->second.plan.expired()) {
    return it->second.reduced;
  }
  ReducedPlan entry;
  Result<ReducedPlan> red = SemijoinReduce(plan);
  if (red.ok()) {
    entry = std::move(*red);
  } else {
    entry.plan = plan;  // null param → the sweeps run the plan unreduced
  }
#ifndef NDEBUG
  // Debug builds statically validate every plan shape this engine is about
  // to execute (see validate.h); the differential suite additionally
  // validates every plan of its instance pool in all build modes.
  PlanValidateOptions vopts;
  vopts.vocab = &lb_->vocab();
  vopts.param = entry.param.get();
  const Status verdict = ValidatePlan(entry.plan, vopts);
  assert(verdict.ok() && "semijoin-reduced plan failed static validation");
  (void)verdict;
#endif
  ReducedEntry& slot = reduced_cache_[plan.get()];
  slot = {plan, std::move(entry)};
  return slot.reduced;
}

Result<PlanPtr> RaExactEvaluator::CachedPlan(const Query& query) {
  // The join-order cap shapes the compiled plan, so it is part of the
  // cache identity — changing the knob mid-session must not serve plans
  // ordered under the old cap.
  const std::string key = CacheKey(lb_->vocab(), query) +
                          "#cap=" + std::to_string(options_.ra_dp_join_cap);
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) return it->second;
  RaCompiler compiler(&lb_->vocab(), StatsFor(*lb_, options_));
  Result<PlanPtr> compiled = compiler.Compile(query);
  // A failed compile caches null → the Tarskian check.
  PlanPtr plan = compiled.ok() ? std::move(compiled).value() : nullptr;
#ifndef NDEBUG
  if (plan != nullptr) {
    // A plan the compiler just produced must pass the static validator; a
    // failure here is a compiler bug, not a user error.
    PlanValidateOptions vopts;
    vopts.vocab = &lb_->vocab();
    const Status verdict = ValidatePlan(plan, vopts);
    if (!verdict.ok()) {
      return Status::Internal("compiled plan failed static validation: " +
                              verdict.message());
    }
  }
#endif
  plan_cache_.emplace(key, plan);
  return plan;
}

Result<const ReducedPlan*> RaExactEvaluator::CompiledCheck(
    const BoundQuery& bound) {
  PlanPtr plan = bound.ra_plan();
  if (!bound.ra_attempted()) {
    LQDB_ASSIGN_OR_RETURN(plan, CachedPlan(bound.query()));
  }
  last_used_ra_ = plan != nullptr;
  if (plan == nullptr) return static_cast<const ReducedPlan*>(nullptr);
  return &ReducedFor(plan);
}

}  // namespace lqdb
