#ifndef LQDB_EXACT_RA_EXACT_H_
#define LQDB_EXACT_RA_EXACT_H_

#include <optional>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/exact/exact.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// Exact Theorem 1 evaluation with a compiled per-image check — the
/// registry's "exact" engine: the sweep executes the binding's
/// semijoin-reduced relational-algebra plan (`BoundQuery::CompileRaPlan`,
/// with join ordering driven by the logical database's fact counts) per
/// mapping via `RaExecutor` — hash joins and anti-joins instead of the
/// tuple-at-a-time Tarskian walk. No image is built: each worker's
/// executor reads `Ph₁(LB)`, made once per call, through each mapping `h`.
/// This is the §5 move of compiling the logical query onto a standard
/// relational system, applied to the hot per-mapping satisfaction check.
/// Mapping source, threads, memo and budget are `ExactEvaluator`'s.
///
/// The engine keeps no compiled plan between calls. A binding that already
/// carries a compilation outcome (`BoundQuery::ra_attempted()`, as every
/// prepared statement of the service layer does) runs as it is; any other
/// binding, including the one each `Query`-taking call makes, is compiled
/// for that one call.
///
/// Queries outside the compilable first-order fragment (second-order
/// quantification, `Unimplemented`) take the Tarskian check of
/// `ExactEvaluator`, so answers stay bit-identical to it on every query the
/// engine accepts; any other recorded compile failure is returned.
class RaExactEvaluator : public ExactEvaluator {
 public:
  explicit RaExactEvaluator(const CwDatabase* lb, ExactOptions options = {})
      : ExactEvaluator(lb, options) {}

  /// Whether the most recent call executed the compiled RA plan (as opposed
  /// to taking the Tarskian check).
  bool last_used_ra() const { return last_used_ra_; }

 protected:
  Result<const ReducedPlan*> CompiledCheck(
      const BoundQuery& bound, std::optional<BoundQuery>* scratch) override;

 private:
  bool last_used_ra_ = false;
};

}  // namespace lqdb

#endif  // LQDB_EXACT_RA_EXACT_H_
