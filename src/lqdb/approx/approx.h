#ifndef LQDB_APPROX_APPROX_H_
#define LQDB_APPROX_APPROX_H_

#include <memory>
#include <optional>

#include "lqdb/approx/alpha.h"
#include "lqdb/approx/transform.h"
#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/logic/query.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// Which engine evaluates the transformed query `Q̂` over `Ph₂(LB)`.
enum class ApproxEngine {
  /// The Tarskian model-checking evaluator with virtual NE / α predicates.
  kEvaluator,
  /// Compile `Q̂` to relational algebra and run it on the RA executor, with
  /// `NE` and the α_P extensions materialized as stored relations — the
  /// "implementation on top of a standard relational system" of §5. Only
  /// available in `AlphaMode::kVirtual` (the compiler needs atoms) and for
  /// first-order queries.
  kRelationalAlgebra,
};

struct ApproxOptions {
  AlphaMode alpha_mode = AlphaMode::kVirtual;
  ApproxEngine engine = ApproxEngine::kEvaluator;
  /// Materialize the quadratic `NE` relation inside `Ph₂` instead of
  /// answering it from the stored axioms (§5 closing remark compares the
  /// two; see bench E6). The RA engine always materializes it, regardless
  /// of this flag.
  bool materialize_ne = false;
};

/// Reiter-style *sound* approximate query evaluation (§5 of the paper):
///
///   A(Q, LB) = Q̂(Ph₂(LB))
///
/// Properties (each with a matching test / bench):
///   - sound: A(Q, LB) ⊆ Q(LB)                        (Theorem 11)
///   - complete for fully specified databases          (Theorem 12)
///   - complete for positive queries                   (Theorem 13)
///   - same complexity as physical query evaluation    (Theorem 14)
///
/// The evaluator only reads the database. Every call builds its own
/// `L′ = L ∪ {NE, α_P}` — a copy of `lb`'s vocabulary extended with `NE`,
/// the α predicates and the transform's fresh variables — and `Ph₂(LB)`
/// over it, from the database as it is at that call. So facts and
/// constants added after `Make` are seen, and `lb`'s vocabulary never
/// grows.
class ApproxEvaluator {
 public:
  /// `lb` is borrowed and must outlive the evaluator.
  static Result<std::unique_ptr<ApproxEvaluator>> Make(
      const CwDatabase* lb, ApproxOptions options = {});

  /// The approximate answer `A(Q, LB)` — a relation over the constants `C`.
  Result<Relation> Answer(const Query& query);

  /// Membership of a single tuple in the approximate answer.
  Result<bool> Contains(const Query& query, const Tuple& candidate);

  /// The transform `Q → Q̂` used by this evaluator (for inspection and for
  /// the engine-ablation bench). `Q̂` is over `vocab()`.
  Result<TransformedQuery> Transform(const Query& query);

  /// `L′` and `Ph₂(LB)` of the last successful call (`Answer`, `Contains`
  /// or `Transform`); valid until the next call.
  const Vocabulary& vocab() const { return *vocab_; }
  const Ph2& ph2() const { return *ph2_; }
  const ApproxOptions& options() const { return options_; }

 private:
  ApproxEvaluator(const CwDatabase* lb, ApproxOptions options)
      : lb_(lb), options_(options) {}

  Result<Relation> AnswerWithEvaluator(const TransformedQuery& tq);
  Result<Relation> AnswerWithRa(const TransformedQuery& tq);

  const CwDatabase* lb_;
  ApproxOptions options_;
  std::unique_ptr<Vocabulary> vocab_;  // L′; `ph2_` borrows it
  std::optional<Ph2> ph2_;
};

}  // namespace lqdb

#endif  // LQDB_APPROX_APPROX_H_
