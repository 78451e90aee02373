#ifndef LQDB_RA_EXECUTOR_H_
#define LQDB_RA_EXECUTOR_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lqdb/ra/flat_table.h"
#include "lqdb/ra/plan.h"
#include "lqdb/relational/database.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// An executed intermediate result: a relation whose columns are named by
/// the plan schema (column i carries attribute schema[i]). The owned form
/// returned by `RaExecutor::Execute` for one-shot callers.
struct RaTable {
  std::vector<VarId> schema;
  Relation rel;

  RaTable() : rel(0) {}
  RaTable(std::vector<VarId> s, Relation r)
      : schema(std::move(s)), rel(std::move(r)) {}
};

/// The zero-copy result form: schema plus a flat table that lives in the
/// executor's slot storage. Returned by `ExecuteView` for the Theorem 1
/// inner loops.
struct RaTableView {
  std::vector<VarId> schema;
  FlatTable rows;
};

/// Bottom-up, fully materializing relational-algebra executor using hash
/// joins. This plays the role of the "standard relational system" that §5
/// of the paper compiles logical queries onto.
///
/// Compiled plans are DAGs — `↔`/`∀` share each compiled child between two
/// branches — so execution memoizes per plan node: within one execution
/// every distinct node is evaluated exactly once, keeping execution linear
/// in `Plan::NumUniqueNodes()` rather than the tree size.
///
/// The executor reads its database *through a mapping* of the values
/// (`ReadThrough`), identity by default. Theorem 1 checks every candidate
/// in every image `h(Ph₁(LB))`, and an image is only `Ph₁(LB)` with its
/// values renamed by `h`, so executing over `Ph₁(LB)` read through `h`
/// answers exactly what executing over the built image would — without
/// building it: scans emit `h[v]` for every stored value `v`, constant and
/// repeated-variable selections compare mapped values, a constant `c`
/// denotes `h[I(c)]`, and the domain reads as `h(domain)`.
///
/// Storage is built for that inner loop — the same cached plan executed
/// under thousands of mappings:
///
///   - the stored relations are copied once into one flat row-major array
///     and re-copied only when the database changes (`version()`), so the
///     scans of a sweep walk contiguous rows and no image is built;
///   - every plan node owns a slot holding a `FlatTable` (flat row array
///     + open-addressing slot array) that is emptied, not destroyed,
///     between executions and keeps its capacity, so once every table has
///     held its largest image the steady state performs **no allocation
///     at all**; the per-node join index and key-set scratch are recycled
///     the same way;
///   - per-node column metadata (join keys, projection positions, scan
///     filters) depends only on the plan shape, so it is computed once per
///     node and reused for every mapping;
///   - slots are validated by an execution epoch, which scopes the memo to
///     one execution even though the storage persists.
///
/// `ExecuteView` is the zero-copy entry point for such loops; `Execute`
/// returns an owned `Relation` copy for one-shot callers.
class RaExecutor {
 public:
  /// Reads `db`, which must outlive the executor. `db` may change between
  /// executions; each execution sees its current contents.
  explicit RaExecutor(const PhysicalDatabase* db) : db_(db) {}

  /// Executes `plan` and returns an owned copy of the root table.
  Result<RaTable> Execute(const PlanPtr& plan);

  /// Executes `plan` and returns a pointer into the executor's slot
  /// storage — no copy. Valid until the next `Execute`/`ExecuteView` call
  /// on this executor (or its destruction).
  Result<const RaTableView*> ExecuteView(const PlanPtr& plan);

  /// Makes later executions read every database value `v` as `(*h)[v]`
  /// (see the class comment); null restores the identity. `h` is borrowed
  /// and must stay valid, unchanged, across the executions that read
  /// through it. An execution fails with `InvalidArgument` when `h` does
  /// not cover every value of the database.
  void ReadThrough(const std::vector<ConstId>* h) { map_ = h; }

  /// Binds the rows a `kParam` node produces: `count` rows of the node's
  /// arity, flat row-major. The buffer is borrowed — it must stay valid
  /// until the binding is replaced; duplicates are deduplicated on
  /// execution. Executing a plan containing an unbound `kParam` fails.
  void BindParam(const Plan* param, const Value* rows, size_t count) {
    params_[param] = {rows, count};
  }

 private:
  /// A per-plan-node result table plus reusable scratch. `epoch` records
  /// the execution that last filled `table`; a stale epoch means the rows
  /// belong to a previous execution and must be rebuilt.
  struct Slot {
    RaTableView table;
    uint64_t epoch = 0;
    /// Plan-shape metadata, computed on first execution of the node and
    /// image-independent (see `PrepareMeta`). Meaning varies by kind:
    /// join/anti/semijoin: `key_a`/`key_b` are left/right key columns and
    /// `extra` the right columns appended to the output; project/union:
    /// `key_a` holds child positions in output order; scan: `key_a` is
    /// output columns, `extra` holds (column, first-occurrence) filter
    /// pairs and `const_filters` the constant selections.
    bool meta_ready = false;
    std::vector<uint32_t> key_a;
    std::vector<uint32_t> key_b;
    std::vector<uint32_t> extra;
    std::vector<std::pair<uint32_t, ConstId>> const_filters;
    /// Per-image scratch, recycled across executions.
    FlatTable key_set;
    JoinIndex index;
  };

  /// Memoized evaluation; the returned pointer lives in `slots_` and stays
  /// valid until the next execution begins.
  Result<const RaTableView*> Exec(const PlanPtr& plan);
  Status ExecNode(const Plan& plan, Slot* slot);

  /// Computes the image-independent column metadata of `slot` (run once
  /// per node; see `Slot`).
  void PrepareMeta(const Plan& plan, Slot* slot);

  Status ExecScan(const Plan& plan, Slot* slot);
  Status ExecConstTuples(const Plan& plan, Slot* slot);
  Status ExecConstCompare(const Plan& plan, Slot* slot);
  Status ExecDomainScan(const Plan& plan, Slot* slot);
  Status ExecEqDomain(const Plan& plan, Slot* slot);
  Status ExecJoin(const Plan& plan, Slot* slot);
  /// `kSemiJoin` and `kAntiJoin`, which differ only in the polarity of
  /// their key filter.
  Status ExecSemiOrAntiJoin(const Plan& plan, Slot* slot);
  Status ExecUnion(const Plan& plan, Slot* slot);
  Status ExecProject(const Plan& plan, Slot* slot);
  Status ExecParam(const Plan& plan, Slot* slot);

  /// Empties `slot`'s table for this node's schema, keeping capacity.
  void ResetOut(const Plan& plan, Slot* slot);

  /// Re-copies the stored relations into `facts_` when the database
  /// changed since the last copy.
  void Reload();

  /// Database value `v` as the current mapping reads it.
  Value Read(Value v) const { return map_ == nullptr ? v : (*map_)[v]; }

  /// The value constant `c` denotes under the current mapping;
  /// `FailedPrecondition` when the database does not interpret `c`.
  Result<Value> ConstantValue(ConstId c) const;

  struct ParamBinding {
    const Value* rows = nullptr;
    size_t count = 0;
  };

  /// One stored relation's rows within `facts_`.
  struct FactSpan {
    size_t offset = 0;
    size_t rows = 0;
  };

  const PhysicalDatabase* db_;
  const std::vector<ConstId>* map_ = nullptr;
  /// Every stored relation, row-major in one array (arity-0 relations
  /// take no values, hence the explicit row counts), indexed by `PredId`;
  /// predicates past the end are empty. Copied at database version
  /// `facts_version_`, together with one past the largest value the
  /// database holds (the least mapping size that covers it).
  std::vector<Value> facts_;
  std::vector<FactSpan> fact_spans_;
  uint64_t facts_version_ = UINT64_MAX;
  size_t value_bound_ = 0;
  uint64_t epoch_ = 0;
  std::unordered_map<const Plan*, Slot> slots_;
  std::unordered_map<const Plan*, ParamBinding> params_;
  std::vector<Value> row_scratch_;
  std::vector<Value> key_scratch_;
};

}  // namespace lqdb

#endif  // LQDB_RA_EXECUTOR_H_
