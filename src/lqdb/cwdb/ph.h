#ifndef LQDB_CWDB_PH_H_
#define LQDB_CWDB_PH_H_

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/relational/database.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// `Ph₁(LB)` (§3.1): the physical database whose domain is the constant set
/// `C`, whose constants are interpreted as themselves, and whose relations
/// hold exactly the atomic facts. The returned database borrows `vocab`
/// (default: the database's own vocabulary), which must extend the
/// database's vocabulary and outlive the result (and must not be moved).
PhysicalDatabase MakePh1(const CwDatabase& lb,
                         const Vocabulary* vocab = nullptr);

/// Name of the inequality predicate added by `MakePh2`.
inline constexpr const char* kNePredicateName = "NE";

struct Ph2Options {
  /// When true, the `NE` relation is materialized with every uniqueness
  /// pair in both orientations — up to quadratic in |C|. When false, the
  /// relation is left empty and membership must be answered from the
  /// stored axioms by a virtual-relation provider (`ApproxProvider`, the
  /// §5 closing-remark implementation).
  bool materialize_ne = true;
};

struct Ph2 {
  PhysicalDatabase db;
  PredId ne;  ///< Id of the `NE` predicate in `L'`.
};

/// `Ph₂(LB)` (§3.2/§5): `Ph₁` over the vocabulary `L'`, `lb`'s vocabulary
/// extended with the binary predicate `NE` that records the uniqueness
/// axioms. `lprime` becomes `L'`: `NE` is declared in it as an auxiliary
/// predicate. It must be `lb`'s vocabulary or a copy of it (possibly
/// already extended), and the result borrows it. Pass `lb.mutable_vocab()`
/// for the paper's in-place construction, or a private copy to leave `lb`
/// untouched (what `ApproxEvaluator` does).
Result<Ph2> MakePh2(const CwDatabase& lb, Vocabulary* lprime,
                    const Ph2Options& options = {});

}  // namespace lqdb

#endif  // LQDB_CWDB_PH_H_
