#ifndef LQDB_RA_PLAN_H_
#define LQDB_RA_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lqdb/logic/term.h"
#include "lqdb/logic/vocabulary.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// Relational-algebra operator kinds. Attributes are named by `VarId` (the
/// query variable that a column carries), which makes natural join "join on
/// shared variables" — the textbook translation of conjunction.
enum class PlanKind {
  kScan,         ///< Stored relation with constant filters / repeated vars.
  kConstTuples,  ///< Literal rows of constant symbols.
  kConstCompare, ///< Arity-0: one row iff two constants denote equal values.
  kDomainScan,   ///< One attribute ranging over the database domain.
  kEqDomain,     ///< Two attributes, rows {(d, d) : d in domain}.
  kJoin,         ///< Natural join (Cartesian product when no shared attr).
  kAntiJoin,     ///< Left rows with no right match on the shared attributes.
  kSemiJoin,     ///< Left rows with some right match on the shared attributes.
  kUnion,        ///< Set union; both sides must carry the same attribute set.
  kProject,      ///< Duplicate-eliminating projection / column reorder.
  kParam,        ///< Runtime-bound rows (`RaExecutor::BindParam`).
};

class Plan;
using PlanPtr = std::shared_ptr<const Plan>;

/// An immutable relational-algebra plan node. Construction goes through the
/// validating factories, which compute the output schema. Nodes are always
/// owned by a `PlanPtr`, which `ToString` hands to its per-node suffix.
class Plan : public std::enable_shared_from_this<Plan> {
 public:
  /// `P(t1, ..., tk)`: columns holding constants become selections, repeated
  /// variables become equality filters; the schema lists the distinct
  /// variables in order of first occurrence.
  static Result<PlanPtr> Scan(const Vocabulary& vocab, PredId pred,
                              TermList columns);

  /// Literal rows; every row must have `schema.size()` constants.
  static Result<PlanPtr> ConstTuples(std::vector<VarId> schema,
                                     std::vector<std::vector<ConstId>> rows);

  /// Arity-0 relation holding one row iff `lhs` and `rhs` are interpreted as
  /// the same domain value.
  static PlanPtr ConstCompare(ConstId lhs, ConstId rhs);

  static PlanPtr DomainScan(VarId attr);

  static Result<PlanPtr> EqDomain(VarId lhs, VarId rhs);

  static Result<PlanPtr> Join(PlanPtr left, PlanPtr right);

  static Result<PlanPtr> AntiJoin(PlanPtr left, PlanPtr right);

  /// Keeps the left rows with at least one right match on the shared
  /// attributes (the reducer of a semijoin reduction); schema = left's.
  static Result<PlanPtr> SemiJoin(PlanPtr left, PlanPtr right);

  /// A table whose rows are supplied at execution time via
  /// `RaExecutor::BindParam`, keyed by node identity. The semijoin
  /// reduction uses one per query to stream the surviving candidate set of
  /// the Theorem 1 loop into the plan.
  static Result<PlanPtr> Param(std::vector<VarId> schema);

  /// Requires equal attribute sets (any order).
  static Result<PlanPtr> Union(PlanPtr left, PlanPtr right);

  /// `attrs` must be distinct and a subset of the child's schema; the output
  /// columns follow `attrs` order.
  static Result<PlanPtr> Project(PlanPtr child, std::vector<VarId> attrs);

  PlanKind kind() const { return kind_; }
  const std::vector<VarId>& schema() const { return schema_; }
  PredId pred() const { return pred_; }
  const TermList& scan_columns() const { return scan_columns_; }
  const std::vector<std::vector<ConstId>>& rows() const { return rows_; }
  ConstId compare_lhs() const { return compare_lhs_; }
  ConstId compare_rhs() const { return compare_rhs_; }
  const PlanPtr& left() const { return children_[0]; }
  const PlanPtr& right() const { return children_[1]; }
  /// Sole child of a unary node.
  const PlanPtr& child() const { return children_[0]; }
  const std::vector<PlanPtr>& children() const { return children_; }

  /// Text `ToString` appends to one node's line, e.g. the compiler's
  /// cardinality estimate (`RaCompiler::AnnotatePlan`).
  using NodeSuffix = std::function<std::string(const PlanPtr&)>;

  /// Indented operator dump, one line per node: its `NodeLabel`, then
  /// `suffix(node)` when a suffix is given. Compiled plans are DAGs (`↔`/`∀`
  /// reference one compiled child from two branches), so a node with
  /// several parents is printed in full once, tagged `#k`; every later
  /// reference prints `#k`, its label and `(shared)` and does not descend.
  /// The dump thus has at most `2 * NumUniqueNodes() + 1` lines, and a plan
  /// without shared nodes prints as a plain tree.
  std::string ToString(const Vocabulary& vocab,
                       const NodeSuffix& suffix = nullptr) const;

  /// The one-line label of this node alone (no children, no newline): the
  /// building block of `ToString` and of the validator's findings.
  std::string NodeLabel(const Vocabulary& vocab) const;

  /// Number of distinct operator nodes (the plan viewed as a DAG). Compiled
  /// plans share subplans — `↔`/`∀` reference each compiled child from two
  /// branches — so this is the measure of compiled-plan size and of the
  /// work a memoizing executor performs.
  size_t NumUniqueNodes() const;

 protected:
  explicit Plan(PlanKind kind) : kind_(kind) {}

 private:
  /// Test-only backdoor (tests/ra_validate_test.cc): corrupts constructed
  /// nodes to prove the static validator rejects shapes the factories
  /// refuse to build. Never used by library code.
  friend struct PlanTestPeer;

  PlanKind kind_;
  std::vector<VarId> schema_;
  PredId pred_ = 0;
  TermList scan_columns_;
  std::vector<std::vector<ConstId>> rows_;
  ConstId compare_lhs_ = 0;
  ConstId compare_rhs_ = 0;
  std::vector<PlanPtr> children_;
};

}  // namespace lqdb

#endif  // LQDB_RA_PLAN_H_
