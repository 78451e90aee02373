#ifndef LQDB_EXACT_RA_EXACT_H_
#define LQDB_EXACT_RA_EXACT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/exact/exact.h"
#include "lqdb/ra/plan.h"
#include "lqdb/ra/semijoin.h"
#include "lqdb/relational/relation.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// Exact Theorem 1 evaluation with a compiled per-image inner loop: the
/// query body is compiled once to a relational-algebra plan (`RaCompiler`,
/// with join ordering driven by the logical database's fact counts), and
/// the canonical-mapping enumeration executes the cached plan against each
/// image via `RaExecutor` — hash joins and anti-joins instead of the
/// tuple-at-a-time Tarskian walk. No image is built: the executor reads
/// `Ph₁(LB)`, made once per call, through each mapping `h`. This is the §5
/// move of compiling the logical query onto a standard relational system,
/// applied to the hot per-mapping satisfaction check.
///
/// Queries outside the compilable first-order fragment (second-order
/// quantification) fall back to the batched `Evaluator::SatisfiesBatch`
/// path of `ExactEvaluator`, so answers stay bit-identical to `exact` on
/// every query the engine accepts.
///
/// Compiled plans are cached per evaluator, keyed by query identity (the
/// printed head + body), so repeated calls — the shell re-running a query,
/// Contains after Answer — reuse the compiled tree; a cached null marks a
/// known-uncompilable query so the fallback is taken without recompiling.
/// A binding that already carries a compilation outcome (a prepared
/// statement from the service layer, `BoundQuery::ra_attempted()`) skips
/// the cache entirely.
class RaExactEvaluator {
 public:
  explicit RaExactEvaluator(const CwDatabase* lb, ExactOptions options = {})
      : lb_(lb), options_(options), fallback_(lb, options) {}

  /// The answer `Q(LB)` — a relation over the constant symbols `C`.
  Result<Relation> Answer(const Query& query);

  /// `Answer` over a pre-bound query — the prepared-statement path. When
  /// the binding carries an RA-compilation outcome it is used as-is (plan
  /// or fallback); otherwise the engine consults its own plan cache. The
  /// binding is only read and must outlive the call.
  Result<Relation> AnswerBound(const BoundQuery& bound);

  /// Membership of one candidate tuple of constants.
  Result<bool> Contains(const Query& query, const Tuple& candidate);

  /// Tuples holding in at least one model of the theory (see
  /// `ExactEvaluator::PossibleAnswer`).
  Result<Relation> PossibleAnswer(const Query& query);

  /// `PossibleAnswer` over a pre-bound query (see `AnswerBound`).
  Result<Relation> PossibleAnswerBound(const BoundQuery& bound);

  /// Mappings examined by the most recent call.
  uint64_t last_mappings_examined() const { return last_mappings_; }

  /// Kernel-memo counters of the most recent call (zeros with memo off;
  /// the fallback path reports the fallback evaluator's counters).
  const KernelMemoCounters& last_memo_counters() const { return last_memo_; }

  /// Whether the most recent call executed the compiled RA plan (as opposed
  /// to taking the evaluator fallback).
  bool last_used_ra() const { return last_used_ra_; }

  /// Number of distinct queries whose compilation outcome is cached.
  size_t plan_cache_size() const { return plan_cache_.size(); }

 private:
  /// Binds `query` and fills its RA-plan slot: from the cache on a hit,
  /// compiling (and caching the outcome) on a miss. A null `ra_plan()` in
  /// the returned binding means "use the fallback".
  Result<BoundQuery> Prepare(const Query& query);

  /// The Theorem 1 loops over a binding whose compilation outcome is
  /// settled (`ra_attempted()` or known-uncompilable treated as fallback).
  Result<Relation> AnswerPrepared(const BoundQuery& bound);
  Result<Relation> PossiblePrepared(const BoundQuery& bound);

  /// The semijoin-reduced form of a compiled plan (cached per plan node —
  /// the sweeps only ever need membership of the surviving candidates, so
  /// they run the reduced plan with the candidate set bound to `param`).
  /// A null `param` (arity-0 plan, or reduction failed) means "run the
  /// original plan unreduced".
  const ReducedPlan& ReducedFor(const PlanPtr& plan);

  const CwDatabase* lb_;
  ExactOptions options_;
  ExactEvaluator fallback_;
  uint64_t last_mappings_ = 0;
  KernelMemoCounters last_memo_;
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
