#ifndef LQDB_EVAL_BOUND_QUERY_H_
#define LQDB_EVAL_BOUND_QUERY_H_

#include <vector>

#include "lqdb/logic/query.h"
#include "lqdb/ra/plan.h"
#include "lqdb/util/result.h"

namespace lqdb {

struct RaCardinalities;  // ra/compiler.h

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

  /// Compiles the query to a relational-algebra plan over `vocab` (see
  /// `RaCompiler`), caching the outcome in the binding: later calls return
  /// the first status without recompiling. On failure — `Unimplemented`
  /// for second-order bodies — `ra_plan()` stays null, and callers fall
  /// back to the batched evaluator path. `stats` (optional) drives the
  /// compiler's join ordering.
  Status CompileRaPlan(const Vocabulary& vocab,
                       const RaCardinalities* stats = nullptr);

  /// Seeds the plan slot from an external cache; the plan must have been
  /// compiled from this binding's query (same query identity).
  void set_ra_plan(PlanPtr plan);

  /// Marks the query as known non-compilable without paying for a compile
  /// (the cached-failure twin of `set_ra_plan`).
  void set_ra_uncompilable(Status why);

  /// The compiled plan; null when compilation has not run or failed.
  const PlanPtr& ra_plan() const { return ra_plan_; }

  /// Whether a compilation outcome (success or cached failure) is recorded;
  /// a prepared statement with `ra_attempted()` carries everything the
  /// exact engine needs, so it can skip its own plan-cache lookup.
  bool ra_attempted() const { return ra_attempted_; }

 private:
  explicit BoundQuery(const Query* query) : query_(query) {}

  const Query* query_;
  std::vector<ConstId> constants_;
  std::vector<PredId> so_predicates_;
  std::vector<PredId> predicates_;
  PlanPtr ra_plan_;
  bool ra_attempted_ = false;
  Status ra_status_;
};

}  // namespace lqdb

#endif  // LQDB_EVAL_BOUND_QUERY_H_
