#ifndef LQDB_EXACT_SWEEP_H_
#define LQDB_EXACT_SWEEP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/eval/kernel_memo.h"
#include "lqdb/exact/exact.h"
#include "lqdb/ra/semijoin.h"
#include "lqdb/relational/relation.h"
#include "lqdb/util/status.h"

namespace lqdb {

/// One Theorem 1 sweep: which mappings to quantify over, how to check a
/// candidate in one image, and which quantifier applies.
struct SweepSpec {
  const CwDatabase* lb = nullptr;
  const BoundQuery* bound = nullptr;
  /// The per-image check. Null selects the Tarskian check: build the image
  /// `h(Ph₁(LB))` (`ApplyMappingInto`) and evaluate the candidates against
  /// it in one `Evaluator::SatisfiesBatch` call. Otherwise the compiled
  /// check: execute this semijoin-reduced plan over `Ph₁(LB)` read through
  /// `h`, with the candidates bound to its parameter — no image is built.
  const ReducedPlan* plan = nullptr;
  MappingSource source = MappingSource::kCanonical;
  /// Canonical source only: the pool the work-stealing walk fans out on;
  /// null walks the mappings in `ForEachCanonicalMapping` order.
  ThreadPool* pool = nullptr;
  /// Certain mode (∀h: a falsifying mapping decides a candidate out) or
  /// possible mode (∃h: a satisfying mapping decides it in).
  bool possible = false;
  /// `max_mappings`, the kernel memo, evaluator options and `steal_chunk`.
  const ExactOptions* options = nullptr;
};

/// What one sweep found.
struct SweepResult {
  /// Certain mode: the candidates no mapping falsified. Possible mode: the
  /// candidates some mapping satisfied.
  Relation answer{0};
  /// The mapping that decided the last open candidate; unset while some
  /// candidate stays open. For a single candidate this is its
  /// counterexample (certain mode) or witness (possible mode).
  std::optional<ConstMapping> decisive;
  /// Mappings examined, summed across workers.
  uint64_t mappings = 0;
  KernelMemoCounters memo;
  /// Ranges retired per worker of the work-stealing walk; empty for the
  /// in-order walks.
  std::vector<uint64_t> worker_ranges;
};

/// The one Theorem 1 loop behind every exact engine: for each mapping `h`
/// of the source, check the open candidates in `h(Ph₁(LB))`, decide the
/// ones `h` settles, and stop once none is open. It owns the
/// `max_mappings` budget, error capture, the decisive mapping and the
/// kernel-memo step (signature → row lookups → check only the misses →
/// insert), which by default runs only with the Tarskian check (see
/// `ExactOptions::memo`); without it every mapping checks its open
/// candidates directly.
/// The answer is order-independent — a candidate's membership is a
/// property of the mapping space — so it is identical for every source
/// order, thread count and memo setting; which mapping is reported as
/// decisive, and `mappings` under early exit, may vary across thread
/// counts. A fully decided candidate set wins over a budget error raised
/// concurrently by a worker still mid-chunk. `out` is filled (counters
/// included) even when an error is returned.
Status RunSweep(const SweepSpec& spec, std::vector<Tuple> candidates,
                SweepResult* out);

}  // namespace lqdb

#endif  // LQDB_EXACT_SWEEP_H_
