#ifndef LQDB_EVAL_BOUND_QUERY_H_
#define LQDB_EVAL_BOUND_QUERY_H_

#include <vector>

#include "lqdb/logic/query.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/plan.h"
#include "lqdb/ra/semijoin.h"
#include "lqdb/util/result.h"

namespace lqdb {

class CwDatabase;

/// Join-ordering statistics for compiling a query against `lb`: image
/// relations are h-images of the fact sets and the image domain is `h(C)`,
/// so the fact counts and `|C|` upper-bound (and under the identity mapping
/// equal) the per-image cardinalities the plan will see. `dp_join_cap` is
/// the caller's `ExactOptions::ra_dp_join_cap`.
RaCardinalities RaCardinalitiesFor(const CwDatabase& lb, size_t dp_join_cap);

/// A query pre-resolved for repeated evaluation. `Evaluator::SatisfiesWith`
/// redoes three pieces of work on every call that depend only on the query,
/// not on the database state: computing the body's free variables, walking
/// the body for the constants whose interpretation must be checked, and
/// walking it again for second-order quantifiers. The Theorem 1 engines
/// call the evaluator once per candidate per canonical mapping, so that
/// per-call overhead dominates their inner loop. Binding the query once
/// hoists all of it, and `Evaluator::SatisfiesBatch` then sweeps a whole
/// candidate set against one image database with the residual per-candidate
/// cost reduced to writing head values into the evaluator's flat
/// environment and walking the formula.
///
/// The binding is also the one compiled form of the query: `CompileRaPlan`
/// turns it into the `exact` engine's per-image check once, and the
/// service's prepared statements carry that check to every session.
///
/// Borrows the query; the query must outlive the binding.
class BoundQuery {
 public:
  /// Pre-resolves `query`. Fails on a null body or a free variable of the
  /// body missing from the head — impossible for a `Query::Make`-validated
  /// query, but checked here because the batched path skips the per-call
  /// free-variable check.
  static Result<BoundQuery> Bind(const Query& query);

  const Query& query() const { return *query_; }
  const std::vector<VarId>& head() const { return query_->head(); }
  size_t arity() const { return query_->arity(); }

  /// Constants mentioned anywhere in the body (cached `ConstantsOf`).
  const std::vector<ConstId>& constants() const { return constants_; }

  /// Predicates bound by a second-order quantifier somewhere in the body;
  /// empty for first-order queries, letting the evaluator skip the
  /// feasibility walk entirely.
  const std::vector<PredId>& so_predicates() const { return so_predicates_; }

  /// Predicates occurring as atoms anywhere in the body, sorted — the
  /// query's read set. An update to any other relation cannot change this
  /// query's answer (second-order quantified relation variables range over
  /// all extensions regardless of the stored facts), which is what lets the
  /// service's result cache invalidate by intersection with the updated
  /// relations.
  const std::vector<PredId>& predicates() const { return predicates_; }

  /// Compiles the query into the exact engine's per-image check, once:
  /// the relational-algebra plan over `vocab` (see `RaCompiler`; `stats`,
  /// when given, drives its join ordering) and its semijoin reduction.
  /// Debug builds validate both plans (ra/validate.h). The outcome is
  /// recorded in the binding, and later calls return it without
  /// recompiling. A second-order body records `Unimplemented`, and the
  /// exact engine takes the Tarskian check for it; a validator finding
  /// records `Internal`, which the exact engine returns on every execution.
  /// On failure `ra_plan()` stays null.
  Status CompileRaPlan(const Vocabulary& vocab,
                       const RaCardinalities* stats = nullptr);

  /// The compiled plan; null when compilation has not run or failed.
  const PlanPtr& ra_plan() const { return ra_plan_; }

  /// The semijoin reduction of `ra_plan()` — what the exact engine's sweep
  /// executes per image, with the open candidates bound to its parameter
  /// (null for an arity-0 query). Empty when `ra_plan()` is null.
  const ReducedPlan& ra_reduced() const { return ra_reduced_; }

  /// Whether `CompileRaPlan` has run, and the outcome it recorded.
  bool ra_attempted() const { return ra_attempted_; }
  const Status& ra_status() const { return ra_status_; }

 private:
  explicit BoundQuery(const Query* query) : query_(query) {}

  const Query* query_;
  std::vector<ConstId> constants_;
  std::vector<PredId> so_predicates_;
  std::vector<PredId> predicates_;
  PlanPtr ra_plan_;
  ReducedPlan ra_reduced_;
  bool ra_attempted_ = false;
  Status ra_status_;
};

}  // namespace lqdb

#endif  // LQDB_EVAL_BOUND_QUERY_H_
