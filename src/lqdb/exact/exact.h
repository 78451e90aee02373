#ifndef LQDB_EXACT_EXACT_H_
#define LQDB_EXACT_EXACT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/eval/kernel_memo.h"
#include "lqdb/logic/query.h"
#include "lqdb/relational/relation.h"
#include "lqdb/util/result.h"

namespace lqdb {

class ThreadPool;
struct ReducedPlan;

/// Options of every Theorem 1 engine (`ExactEvaluator` and its brute-force
/// and compiled front-ends).
struct ExactOptions {
  /// Abort with `ResourceExhausted` after examining this many canonical
  /// mappings — the co-NP enumeration is exponential in the number of
  /// unknown values (Theorem 5), so callers opt into how much work a query
  /// may burn. Counted globally across worker threads; an answer fully
  /// decided within the budget is returned even when workers still
  /// mid-chunk nudged the shared count past it before standing down. The
  /// brute-force engine instead refuses up front when `|C|^|C|` exceeds it.
  uint64_t max_mappings = 10'000'000;
  /// Join-order enumeration cap for the compiled RA path (see
  /// `RaCardinalities::dp_join_cap`): conjunctions up to this many positive
  /// conjuncts get DP ordering, larger ones the greedy pass; 0 disables
  /// the DP. Shell knob: `set join_cap <n>`.
  size_t ra_dp_join_cap = 10;
  /// Kernel-class verdict memoization (eval/kernel_memo.h): per-mapping
  /// signatures over the query-relevant constants let signature-equivalent
  /// images share candidate verdicts within one call, skipping the image
  /// check entirely on a full hit. Unset, the sweep picks it by its
  /// per-image check. The Tarskian check runs with it: a full hit skips
  /// building the image and evaluating the query on it. The compiled check
  /// runs without it: it reads `Ph₁(LB)` through each mapping instead of
  /// building an image, so the signature, intern and per-candidate lookups
  /// cost more than the plan executions they skip. `true` or `false`
  /// forces the memo on or off for either check. Answers are bit-identical
  /// either way (pinned by the differential suite).
  std::optional<bool> memo;
  /// Worker threads of the canonical-mapping sweep; 0 means
  /// `ThreadPool::DefaultThreads()`. At 1 the mappings are walked in order
  /// on the calling thread; otherwise the engine keeps a pool and the
  /// kernel-partition space is work-stolen across it. Answers are
  /// identical at every thread count (shell: `set threads N`).
  int threads = 1;
  /// Work-stealing granularity: a worker walks at most this many mappings
  /// of a range before donating the unvisited remainder back to the shared
  /// queue, so an arbitrarily skewed range can never serialize more than
  /// `steal_chunk` mappings on one worker. Values < 1 are clamped to 1.
  uint64_t steal_chunk = 64;
};

/// Which mappings a Theorem 1 sweep quantifies over.
enum class MappingSource {
  /// One canonical representative per kernel partition (see
  /// `ForEachCanonicalMapping`).
  kCanonical,
  /// Every function `h : C → C` respecting the uniqueness axioms (see
  /// `ForEachMapping`) — the literal definition, exponentially redundant.
  kAllFunctions,
};

/// Checks that `candidate` has the query's arity and only references
/// constants of `lb` — the one entry validation of every builtin engine's
/// membership test.
Status ValidateCandidate(const CwDatabase& lb, const Query& query,
                         const Tuple& candidate);

/// All tuples over the constants `[0, n)` of the given arity, in odometer
/// order — the candidate space the Theorem 1 engines prune (one shared
/// definition so every engine enumerates identically).
/// Arity 0 yields the single empty tuple (the Boolean candidate); a
/// positive arity over zero constants yields the empty space.
std::vector<Tuple> AllCandidateTuples(size_t arity, ConstId n);

/// A witness that a tuple is *not* in `Q(LB)`: a mapping `h` respecting the
/// uniqueness axioms with `h(c) ∉ Q(h(Ph₁(LB)))` — i.e. a model of `T`
/// falsifying `φ(c)` (Theorem 1). This is the NP certificate from the
/// Theorem 5(1) upper-bound proof.
struct Counterexample {
  ConstMapping h;
};

/// Exact query evaluation over a CW logical database via the Theorem 1
/// characterization:
///
///   c ∈ Q(LB)  iff  h(c) ∈ Q(h(Ph₁(LB))) for every h : C → C
///                   that respects the uniqueness axioms,
///
/// enumerating one representative per kernel partition (see
/// `ForEachCanonicalMapping`) with early exit once every candidate is
/// decided. Each image is checked the Tarskian way: the image database is
/// built and the open candidates are evaluated against it in one batched
/// `Evaluator::SatisfiesBatch` call (registered as "batched-exact").
///
/// This class is the front-end of every exact engine: it validates, picks
/// a mapping source and a per-image check, and hands both to the one sweep
/// driver (exact/sweep.h). `RaExactEvaluator` swaps in the compiled check
/// and `BruteForceEvaluator` the all-functions source.
class ExactEvaluator {
 public:
  explicit ExactEvaluator(const CwDatabase* lb, ExactOptions options = {})
      : ExactEvaluator(lb, options, MappingSource::kCanonical) {}
  virtual ~ExactEvaluator();

  ExactEvaluator(const ExactEvaluator&) = delete;
  ExactEvaluator& operator=(const ExactEvaluator&) = delete;

  /// The answer `Q(LB)` — a relation over the constant symbols `C`
  /// (§2.1: logical answers are tuples of constants, not domain values).
  Result<Relation> Answer(const Query& query);

  /// As `Answer`, over a query that was already bound — the
  /// prepared-statement path: the service layer binds (and RA-compiles)
  /// once per query text and every later execution skips straight to the
  /// enumeration. The binding (and the query it borrows) must outlive the
  /// call; the binding is only read, so concurrent sessions may share one.
  Result<Relation> AnswerBound(const BoundQuery& bound);

  /// Membership of one candidate tuple of constants; fills `*counterexample`
  /// (when non-null) if the answer is negative.
  Result<bool> Contains(const Query& query, const Tuple& candidate,
                        std::optional<Counterexample>* counterexample =
                            nullptr);

  /// The dual of `Answer` (an extension beyond the paper, which defines
  /// only certain answers): tuples that hold in *at least one* model of the
  /// theory — `{c : T ∪ {φ(c)} is finitely satisfiable}`. Certain ⊆
  /// possible; the gap between the two relations is exactly the
  /// information lost to the unknown values. The same Theorem 1 machinery
  /// applies with the quantifier flipped (∃h instead of ∀h), making this
  /// the NP face of the co-NP problem.
  Result<Relation> PossibleAnswer(const Query& query);

  /// `PossibleAnswer` over a pre-bound query (see `AnswerBound`).
  Result<Relation> PossibleAnswerBound(const BoundQuery& bound);

  /// Membership in the possible answer, with an optional witnessing
  /// mapping (the model where the tuple holds).
  Result<bool> IsPossible(const Query& query, const Tuple& candidate,
                          std::optional<Counterexample>* witness = nullptr);

  /// Mappings examined by the most recent call, summed across workers
  /// (for the E1/E7 benches).
  uint64_t last_mappings_examined() const { return last_mappings_; }

  /// Kernel-memo counters of the most recent call (zeros with memo off).
  const KernelMemoCounters& last_memo_counters() const { return last_memo_; }

  /// Ranges (work-stealing chunks) retired per worker by the most recent
  /// call, indexed by worker; empty for the in-order walk at one thread.
  /// Under early exit some workers may legitimately retire zero.
  const std::vector<uint64_t>& last_worker_ranges() const {
    return last_worker_ranges_;
  }

  /// The number of worker threads the sweep runs on.
  int threads() const;

 protected:
  ExactEvaluator(const CwDatabase* lb, ExactOptions options,
                 MappingSource source);

  /// The per-image check of a sweep over a binding: a semijoin-reduced
  /// plan for the compiled check, or null for the Tarskian one. A check
  /// built for this call alone lives in `*scratch`, which the sweep keeps
  /// alive until it ends.
  virtual Result<const ReducedPlan*> CompiledCheck(
      const BoundQuery&, std::optional<BoundQuery>* /*scratch*/) {
    return static_cast<const ReducedPlan*>(nullptr);
  }

  const CwDatabase* lb_;
  ExactOptions options_;

 private:
  /// Runs the sweep over `*candidate` alone, or over every candidate tuple
  /// when null, in certain or possible mode; fills `*decisive` (when
  /// non-null) with the mapping that decided the last candidate.
  Result<Relation> Sweep(const BoundQuery& bound, const Tuple* candidate,
                         bool possible,
                         std::optional<Counterexample>* decisive);
  /// `Contains` (certain mode) and `IsPossible` (possible mode).
  Result<bool> Decide(const Query& query, const Tuple& candidate,
                      bool possible, std::optional<Counterexample>* decisive);

  MappingSource source_;
  std::unique_ptr<ThreadPool> pool_;  // null: the in-order walk
  uint64_t last_mappings_ = 0;
  KernelMemoCounters last_memo_;
  std::vector<uint64_t> last_worker_ranges_;
};

}  // namespace lqdb

#endif  // LQDB_EXACT_EXACT_H_
