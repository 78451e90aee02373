#ifndef LQDB_RA_COMPILER_H_
#define LQDB_RA_COMPILER_H_

#include <unordered_map>

#include "lqdb/logic/formula.h"
#include "lqdb/logic/query.h"
#include "lqdb/ra/plan.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// Cardinality statistics that drive the greedy join ordering in
/// `RaCompiler::CompileAnd`. The Theorem 1 engines compile once per query
/// and execute the plan against every image database, so the statistics
/// come from the logical database: image relations are h-images of the fact
/// sets (size bounded by the fact count) and the image domain is `h(C)`
/// (size bounded by `|C|`). The defaults give a neutral ordering when no
/// database is at hand (plain `RaCompiler(&vocab)` construction).
struct RaCardinalities {
  /// Expected number of domain values (cost of a `DomainScan`).
  double domain_size = 4.0;
  /// Expected row count per predicate, indexed by `PredId`; predicates
  /// beyond the vector fall back to `default_relation_size`.
  std::vector<double> relation_sizes;
  double default_relation_size = 8.0;
  /// Conjunctions with at most this many positive conjuncts get exact
  /// DP join-order enumeration over connected subgraphs (DPsub with a
  /// C_out cost model); larger ones fall back to the greedy pass. The
  /// DP is exponential in the conjunct count, so the cap bounds compile
  /// time; 0 disables the DP entirely.
  size_t dp_join_cap = 10;

  double RelationSize(PredId pred) const {
    if (pred < relation_sizes.size()) return relation_sizes[pred];
    return default_relation_size;
  }
};

/// One join-ordering decision taken while compiling a query (one entry per
/// conjunction of ≥ 2 positive conjuncts, in compile order) — surfaced by
/// the shell's `explain` so plan regressions are eyeballable.
struct JoinOrderInfo {
  size_t conjuncts = 0;
  bool used_dp = false;
  /// Estimated row count of the fully joined conjunction.
  double estimated_rows = 0.0;
};

/// Compiles first-order queries into relational-algebra plans under
/// *active-domain* semantics: quantifiers and complements range over the
/// database domain, which is exactly the semantics of `Evaluator` (and of
/// the paper's finite interpretations, whose domain-closure axiom makes the
/// domain explicit).
///
/// The translation is total on first-order formulas:
///   - conjunction → natural join, greedily ordered by estimated
///     cardinality, with negated conjuncts lowered to anti-joins against
///     the accumulated positive part;
///   - disjunction → union, padding disjuncts with domain scans;
///   - ¬φ in other positions → complement against a domain product;
///   - ∃ → projection (joining a vacuous bound variable against a domain
///     scan first, so the quantifier is false over an empty domain);
///   - ∀ → ¬∃¬ and →/↔ → their boolean expansions, built directly over
///     one compilation of each child, sharing the compiled `PlanPtr`
///     between branches (plans are immutable, so the result is a DAG and
///     plan *size* stays linear in formula size).
///
/// Second-order quantifiers are rejected with `Unimplemented`.
///
/// Invariant: the schema of `CompileFormula(f)` equals `FreeVariables(f)`
/// as a set.
class RaCompiler {
 public:
  explicit RaCompiler(const Vocabulary* vocab, RaCardinalities stats = {})
      : vocab_(vocab), stats_(std::move(stats)) {}

  /// Compiles a full query; the plan's schema follows the head order.
  /// Head variables that do not occur in the body range over the domain.
  Result<PlanPtr> Compile(const Query& query);

  /// Compiles a formula; the plan's schema is the formula's free variables.
  Result<PlanPtr> CompileFormula(const FormulaPtr& f);

  /// `Plan::ToString` with each node's cardinality estimate (`~N rows`)
  /// as its suffix, for the shell's `explain`.
  std::string AnnotatePlan(const PlanPtr& plan);

  /// Join-ordering decisions recorded by the `Compile*` calls so far.
  const std::vector<JoinOrderInfo>& join_order_log() const {
    return join_order_log_;
  }

 private:
  Result<PlanPtr> CompileEquals(const FormulaPtr& f);
  Result<PlanPtr> CompileAnd(const FormulaPtr& f);
  Result<PlanPtr> CompileOr(const FormulaPtr& f);
  Result<PlanPtr> CompileNot(const FormulaPtr& f);
  Result<PlanPtr> CompileExists(const FormulaPtr& f);
  Result<PlanPtr> CompileForall(const FormulaPtr& f);
  Result<PlanPtr> CompileImplies(const FormulaPtr& f);
  Result<PlanPtr> CompileIff(const FormulaPtr& f);

  /// One empty row over the empty schema (the unit of join).
  Result<PlanPtr> Unit();
  /// Product of domain scans over `vars` (Unit when empty).
  Result<PlanPtr> DomainProduct(const std::set<VarId>& vars);
  /// Joins `plan` with domain scans for any variable of `vars` missing from
  /// its schema.
  Result<PlanPtr> PadTo(PlanPtr plan, const std::set<VarId>& vars);
  /// The active-domain complement of `plan`, whose schema is `free`:
  /// anti-join of the domain product over `free` against `plan`.
  Result<PlanPtr> Complement(PlanPtr plan, const std::set<VarId>& free);
  /// Existential quantification of `var` over a compiled body: projects the
  /// column away; a vacuous `var` (absent from the schema) is first joined
  /// against a domain scan so ∃ still demands a witness.
  Result<PlanPtr> ExistsPlan(PlanPtr plan, VarId var);

  /// Estimated output cardinality of `plan` under `stats_`, memoized per
  /// node (shared DAG subplans are estimated once).
  double Estimate(const PlanPtr& plan);

  /// Joins `plans` (≥ 2 positive conjuncts) into one tree. `OrderJoinsDp`
  /// runs DPsub join-order enumeration restricted to connected splits —
  /// cross products only between connected components, which are combined
  /// smallest-estimate first. `OrderJoinsGreedy` is the linear fallback:
  /// seed with the smallest input, then repeatedly join the
  /// minimum-estimate partner, connected partners first.
  Result<PlanPtr> OrderJoinsDp(const std::vector<PlanPtr>& plans);
  Result<PlanPtr> OrderJoinsGreedy(const std::vector<PlanPtr>& plans);

  const Vocabulary* vocab_;
  RaCardinalities stats_;
  // Keyed by the owning pointer, not the node's address: an entry keeps its
  // node alive, so no later node can reuse the address and read a stale
  // estimate.
  std::unordered_map<PlanPtr, double> estimate_cache_;
  std::vector<JoinOrderInfo> join_order_log_;
};

}  // namespace lqdb

#endif  // LQDB_RA_COMPILER_H_
