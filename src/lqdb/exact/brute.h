#ifndef LQDB_EXACT_BRUTE_H_
#define LQDB_EXACT_BRUTE_H_

#include <cstdint>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/query.h"
#include "lqdb/relational/relation.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// `base^exp` in integer arithmetic, saturating at `UINT64_MAX` on
/// overflow. The brute-force engine sizes its |C|^|C| enumeration with
/// this instead of `std::pow`, whose double result has only 53 bits of
/// mantissa and misclassifies budgets near the threshold for large |C|.
/// `SaturatingPower(0, 0) == 1`, matching the one (empty) mapping.
uint64_t SaturatingPower(uint64_t base, uint64_t exp);

/// Literal Theorem 1 evaluation: quantifies over *all* mappings `h : C → C`
/// respecting the uniqueness axioms, with no partition canonicalization —
/// the `ExactEvaluator` front-end over the all-functions mapping source,
/// always walked in order. Exponentially redundant; exists to
/// cross-validate the canonical enumeration (tests) and to quantify the
/// win of canonicalization (bench E7). Calls fail with `ResourceExhausted`
/// up front when `|C|^|C|` exceeds `options.max_mappings`. The walk is in
/// order, so `options.threads` is forced to 1. The enumeration revisits
/// each kernel partition many times, so the kernel memo, which its
/// Tarskian check runs with unless `options.memo` turns it off, pays off
/// even more than on the canonical sweep (bench E7's all-functions rows
/// take about twice as long without it).
class BruteForceEvaluator : public ExactEvaluator {
 public:
  explicit BruteForceEvaluator(const CwDatabase* lb,
                               ExactOptions options = {});
};

struct ModelEnumOptions {
  /// Upper bound on the estimated number of candidate interpretations.
  double max_models = 20'000'000.0;
  EvalOptions eval;
};

/// First-principles decision of `T ⊨_f φ(c)` straight from the §2.1
/// definition: enumerates *every* finite interpretation whose domain is a
/// nonempty subset of `C` (every constant assignment, every relation
/// assignment), keeps those satisfying all sentences of the §2.2 theory
/// `T`, and checks `φ(c)` in each. Totally independent of the Theorem 1
/// machinery — the strongest cross-check the library has, and astronomically
/// expensive: use only on tiny databases.
///
/// By the domain-closure axiom every model of `T` has at most `|C|` domain
/// elements, and any such model is isomorphic to one whose domain is a
/// subset of `C`; satisfaction is isomorphism-invariant, so restricting the
/// enumeration to subsets of `C` is sound and complete.
Result<bool> ModelEnumerationContains(CwDatabase* lb, const Query& query,
                                      const Tuple& candidate,
                                      const ModelEnumOptions& options = {});

}  // namespace lqdb

#endif  // LQDB_EXACT_BRUTE_H_
