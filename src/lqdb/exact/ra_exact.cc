#include "lqdb/exact/ra_exact.h"

namespace lqdb {

Result<const ReducedPlan*> RaExactEvaluator::CompiledCheck(
    const BoundQuery& bound, std::optional<BoundQuery>* scratch) {
  const BoundQuery* compiled = &bound;
  if (!bound.ra_attempted()) {
    const RaCardinalities stats =
        RaCardinalitiesFor(*lb_, options_.ra_dp_join_cap);
    BoundQuery& local = scratch->emplace(bound);
    (void)local.CompileRaPlan(lb_->vocab(), &stats);  // recorded in `local`
    compiled = &local;
  }
  last_used_ra_ = compiled->ra_plan() != nullptr;
  if (last_used_ra_) return &compiled->ra_reduced();
  if (compiled->ra_status().code() == StatusCode::kUnimplemented) {
    return static_cast<const ReducedPlan*>(nullptr);  // the Tarskian check
  }
  return compiled->ra_status();
}

}  // namespace lqdb
