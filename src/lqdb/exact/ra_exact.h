#ifndef LQDB_EXACT_RA_EXACT_H_
#define LQDB_EXACT_RA_EXACT_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/exact/exact.h"
#include "lqdb/ra/plan.h"
#include "lqdb/ra/semijoin.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// Exact Theorem 1 evaluation with a compiled per-image check — the
/// registry's "exact" engine: the query body is compiled once to a
/// relational-algebra plan (`RaCompiler`, with join ordering driven by the
/// logical database's fact counts), and the sweep executes the cached,
/// semijoin-reduced plan per mapping via `RaExecutor` — hash joins and
/// anti-joins instead of the tuple-at-a-time Tarskian walk. No image is
/// built: each worker's executor reads `Ph₁(LB)`, made once per call,
/// through each mapping `h`. This is the §5 move of compiling the logical
/// query onto a standard relational system, applied to the hot
/// per-mapping satisfaction check. Mapping source, threads, memo and
/// budget are `ExactEvaluator`'s.
///
/// Queries outside the compilable first-order fragment (second-order
/// quantification) take the Tarskian check of `ExactEvaluator`, so answers
/// stay bit-identical to it on every query the engine accepts.
///
/// Compiled plans are cached per evaluator, keyed by query identity (the
/// printed head + body), so repeated calls — the shell re-running a query,
/// Contains after Answer — reuse the compiled tree; a cached null marks a
/// known-uncompilable query so the Tarskian check is taken without
/// recompiling. A binding that already carries a compilation outcome (a
/// prepared statement from the service layer, `BoundQuery::ra_attempted()`)
/// skips the cache entirely.
class RaExactEvaluator : public ExactEvaluator {
 public:
  explicit RaExactEvaluator(const CwDatabase* lb, ExactOptions options = {})
      : ExactEvaluator(lb, options) {}

  /// Whether the most recent call executed the compiled RA plan (as opposed
  /// to taking the Tarskian check).
  bool last_used_ra() const { return last_used_ra_; }

  /// Number of distinct queries whose compilation outcome is cached.
  size_t plan_cache_size() const { return plan_cache_.size(); }

 protected:
  Result<const ReducedPlan*> CompiledCheck(const BoundQuery& bound) override;

 private:
  /// The compiled plan of `query`: from the cache on a hit, compiling (and
  /// caching the outcome) on a miss. Null means "not compilable".
  Result<PlanPtr> CachedPlan(const Query& query);

  /// The semijoin-reduced form of a compiled plan (cached per plan node —
  /// the sweeps only ever need membership of the open candidates, so they
  /// run the reduced plan with the candidate set bound to `param`). A null
  /// `param` (arity-0 plan, or reduction failed) means "run the original
  /// plan unreduced".
  const ReducedPlan& ReducedFor(const PlanPtr& plan);

  bool last_used_ra_ = false;
  /// Query identity → compiled plan; null = known uncompilable.
  std::map<std::string, PlanPtr> plan_cache_;
  /// Compiled plan → its semijoin reduction, keyed by node identity. The
  /// entry holds its plan weakly: a prepared binding's plan may be freed
  /// after the call, and a later plan allocated at the same address must
  /// not be served the freed plan's reduction, so an expired entry is
  /// rebuilt.
  struct ReducedEntry {
    std::weak_ptr<const Plan> plan;
    ReducedPlan reduced;
  };
  std::unordered_map<const Plan*, ReducedEntry> reduced_cache_;
};

}  // namespace lqdb

#endif  // LQDB_EXACT_RA_EXACT_H_
