#include "lqdb/exact/ra_exact.h"

#include <cassert>
#include <string>
#include <vector>

#include "lqdb/cwdb/mapping.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/logic/printer.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/executor.h"
#include "lqdb/ra/validate.h"

namespace lqdb {

namespace {

/// Join-ordering statistics from the logical database: image relations are
/// h-images of the fact sets and the image domain is `h(C)`, so the fact
/// counts and `|C|` upper-bound (and in the canonical identity mapping,
/// equal) the per-image cardinalities the plan will see.
RaCardinalities StatsFor(const CwDatabase& lb, const ExactOptions& options) {
  RaCardinalities stats;
  stats.domain_size = static_cast<double>(lb.num_constants());
  stats.relation_sizes.assign(lb.vocab().num_predicates(), 0.0);
  for (PredId p : lb.PredicatesWithFacts()) {
    stats.relation_sizes[p] = static_cast<double>(lb.facts(p).size());
  }
  stats.dp_join_cap = options.ra_dp_join_cap;
  return stats;
}

/// Query identity for the plan cache: head order + printed body.
std::string CacheKey(const Vocabulary& vocab, const Query& query) {
  std::string key = "(";
  for (size_t i = 0; i < query.head().size(); ++i) {
    if (i > 0) key += ", ";
    key += vocab.VariableName(query.head()[i]);
  }
  key += ") . ";
  key += PrintFormula(vocab, query.body());
  return key;
}

/// Per-call memoization state of the RA sweeps — the RA analogue of
/// `KernelMemoState`, with the scratch the compiled path needs.
struct RaMemoState {
  RaMemoState(const CwDatabase& lb, const BoundQuery& bound,
              const ExactOptions& options)
      : memo(options.memo, options.memo_max_entries) {
    if (memo.enabled()) ctx.emplace(lb, bound.constants());
  }

  KernelMemo memo;
  std::optional<KernelSignatureContext> ctx;
  KernelSignatureScratch sig;
  std::vector<Value> rows;     // relabeled memo-key rows, count × arity
  std::vector<uint32_t> miss;  // candidate positions the memo could not serve
};

/// One mapping of an RA Theorem 1 sweep, memo first: fills `verdicts[k]`
/// with candidate k's truth under the image of `h`, consulting the kernel
/// memo before touching the plan — a full hit skips the execution — and
/// otherwise running the (semijoin-reduced) plan with only the missing
/// candidates bound to the parameter. `exec` reads `Ph₁(LB)`; reading it
/// through `h` is reading the image `h(Ph₁(LB))`, so no image is built.
Status RaEvalUnderMapping(const ConstMapping& h, const ReducedPlan& red,
                          RaExecutor* exec, size_t arity,
                          const std::vector<Tuple>& candidates,
                          RaMemoState* memo, std::vector<char>* verdicts,
                          std::vector<Value>* cand) {
  const size_t count = candidates.size();
  verdicts->resize(count);
  const bool use_memo = memo->memo.enabled();
  uint32_t sig_id = 0;
  memo->miss.clear();
  if (use_memo) {
    memo->ctx->SignatureOf(h, &memo->sig);
    sig_id = memo->memo.InternSignature(memo->sig.sig);
    memo->rows.resize(count * arity);
    for (size_t k = 0; k < count; ++k) {
      const Tuple& c = candidates[k];
      Value* row = memo->rows.data() + k * arity;
      for (size_t i = 0; i < arity; ++i) row[i] = memo->sig.relabel[h[c[i]]];
      const int v = memo->memo.LookupRow(sig_id, row, arity);
      if (v < 0) {
        memo->miss.push_back(static_cast<uint32_t>(k));
      } else {
        (*verdicts)[k] = static_cast<char>(v);
      }
    }
    memo->memo.CountLookups(count - memo->miss.size(), memo->miss.size());
    if (memo->miss.empty()) {
      memo->memo.CountImageSkipped();
      return Status::OK();
    }
  } else {
    memo->miss.resize(count);
    for (size_t k = 0; k < count; ++k) {
      memo->miss[k] = static_cast<uint32_t>(k);
    }
  }

  exec->ReadThrough(&h);
  const size_t misses = memo->miss.size();
  cand->resize(misses * arity);
  for (size_t j = 0; j < misses; ++j) {
    const Tuple& c = candidates[memo->miss[j]];
    for (size_t i = 0; i < arity; ++i) (*cand)[j * arity + i] = h[c[i]];
  }
  // Binding only the misses is sound: the semijoin contract guarantees
  // membership answers for exactly the rows in the parameter set, and the
  // hits were answered from the memo.
  if (red.param != nullptr) {
    exec->BindParam(red.param.get(), cand->data(), misses);
  }
  Result<const RaTableView*> table = exec->ExecuteView(red.plan);
  if (!table.ok()) return table.status();
  for (size_t j = 0; j < misses; ++j) {
    const uint32_t k = memo->miss[j];
    const bool verdict = (*table)->rows.Contains(cand->data() + j * arity);
    (*verdicts)[k] = static_cast<char>(verdict);
    if (use_memo) {
      memo->memo.InsertRow(sig_id, memo->rows.data() + k * arity, arity,
                           verdict);
    }
  }
  return Status::OK();
}

}  // namespace

const ReducedPlan& RaExactEvaluator::ReducedFor(const PlanPtr& plan) {
  auto it = reduced_cache_.find(plan.get());
  if (it != reduced_cache_.end() && !it->second.plan.expired()) {
    return it->second.reduced;
  }
  ReducedPlan entry;
  Result<ReducedPlan> red = SemijoinReduce(plan);
  if (red.ok()) {
    entry = std::move(*red);
  } else {
    entry.plan = plan;  // null param → the sweeps run the plan unreduced
  }
#ifndef NDEBUG
  // Debug builds statically validate every plan shape this engine is about
  // to execute (see validate.h); the differential suite additionally
  // validates every plan of its instance pool in all build modes.
  PlanValidateOptions vopts;
  vopts.vocab = &lb_->vocab();
  vopts.param = entry.param.get();
  const Status verdict = ValidatePlan(entry.plan, vopts);
  assert(verdict.ok() && "semijoin-reduced plan failed static validation");
  (void)verdict;
#endif
  ReducedEntry& slot = reduced_cache_[plan.get()];
  slot = {plan, std::move(entry)};
  return slot.reduced;
}

Result<BoundQuery> RaExactEvaluator::Prepare(const Query& query) {
  LQDB_ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(query));
  // The join-order cap shapes the compiled plan, so it is part of the
  // cache identity — changing the knob mid-session must not serve plans
  // ordered under the old cap.
  const std::string key = CacheKey(lb_->vocab(), query) +
                          "#cap=" + std::to_string(options_.ra_dp_join_cap);
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) {
    if (it->second != nullptr) {
      bound.set_ra_plan(it->second);
    } else {
      bound.set_ra_uncompilable(
          Status::Unimplemented("query is cached as uncompilable"));
    }
    return bound;
  }
  const RaCardinalities stats = StatsFor(*lb_, options_);
  Status s = bound.CompileRaPlan(lb_->vocab(), &stats);
  (void)s;  // a failed compile leaves ra_plan() null → fallback path
#ifndef NDEBUG
  if (bound.ra_plan() != nullptr) {
    // A plan the compiler just produced must pass the static validator; a
    // failure here is a compiler bug, not a user error.
    PlanValidateOptions vopts;
    vopts.vocab = &lb_->vocab();
    const Status verdict = ValidatePlan(bound.ra_plan(), vopts);
    if (!verdict.ok()) {
      return Status::Internal("compiled plan failed static validation: " +
                              verdict.message());
    }
  }
#endif
  plan_cache_.emplace(key, bound.ra_plan());
  return bound;
}

Result<Relation> RaExactEvaluator::Answer(const Query& query) {
  LQDB_RETURN_IF_ERROR(lb_->Validate());
  LQDB_ASSIGN_OR_RETURN(BoundQuery bound, Prepare(query));
  return AnswerPrepared(bound);
}

Result<Relation> RaExactEvaluator::AnswerBound(const BoundQuery& bound) {
  LQDB_RETURN_IF_ERROR(lb_->Validate());
  if (bound.ra_attempted()) return AnswerPrepared(bound);
  LQDB_ASSIGN_OR_RETURN(BoundQuery prepared, Prepare(bound.query()));
  return AnswerPrepared(prepared);
}

Result<Relation> RaExactEvaluator::AnswerPrepared(const BoundQuery& bound) {
  if (bound.ra_plan() == nullptr) {
    last_used_ra_ = false;
    Result<Relation> out = fallback_.AnswerBound(bound);
    last_mappings_ = fallback_.last_mappings_examined();
    last_memo_ = fallback_.last_memo_counters();
    return out;
  }
  last_used_ra_ = true;
  const ReducedPlan& red = ReducedFor(bound.ra_plan());

  const size_t arity = bound.arity();
  const ConstId n = static_cast<ConstId>(lb_->num_constants());

  // All candidate tuples over C start alive; every mapping prunes. The
  // compiled plan projects to the head order, so `Q(image)` membership of
  // the mapped candidate is one hash lookup — and the semijoin-reduced
  // plan only materializes rows matching the still-alive candidates, so
  // the per-image work shrinks as the sweep converges.
  std::vector<Tuple> alive = AllCandidateTuples(arity, n);

  Status error = Status::OK();
  uint64_t examined = 0;
  const PhysicalDatabase ph1 = MakePh1(*lb_);
  RaExecutor exec(&ph1);
  RaMemoState memo(*lb_, bound, options_);
  std::vector<Value> cand;
  std::vector<char> verdicts;
  ForEachCanonicalMapping(*lb_, [&](const ConstMapping& h) {
    if (++examined > options_.max_mappings) {
      error = Status::ResourceExhausted(
          "exceeded max_mappings = " + std::to_string(options_.max_mappings));
      return false;
    }
    Status s = RaEvalUnderMapping(h, red, &exec, arity, alive, &memo,
                                  &verdicts, &cand);
    if (!s.ok()) {
      error = s;
      return false;
    }
    size_t kept = 0;
    for (size_t k = 0; k < alive.size(); ++k) {
      if (!verdicts[k]) continue;
      if (kept != k) alive[kept] = std::move(alive[k]);
      ++kept;
    }
    alive.resize(kept);
    return !alive.empty();  // nothing left to disprove
  });
  last_mappings_ = examined;
  last_memo_ = memo.memo.counters();
  if (!error.ok()) return error;

  Relation answer(static_cast<int>(arity));
  for (Tuple& t : alive) answer.Insert(std::move(t));
  return answer;
}

Result<bool> RaExactEvaluator::Contains(const Query& query,
                                        const Tuple& candidate) {
  LQDB_RETURN_IF_ERROR(lb_->Validate());
  LQDB_RETURN_IF_ERROR(ValidateExactCandidate(*lb_, query, candidate));
  LQDB_ASSIGN_OR_RETURN(BoundQuery bound, Prepare(query));
  if (bound.ra_plan() == nullptr) {
    last_used_ra_ = false;
    Result<bool> out = fallback_.Contains(query, candidate);
    last_mappings_ = fallback_.last_mappings_examined();
    last_memo_ = fallback_.last_memo_counters();
    return out;
  }
  last_used_ra_ = true;
  const ReducedPlan& red = ReducedFor(bound.ra_plan());

  const size_t arity = query.arity();
  bool contained = true;
  Status error = Status::OK();
  uint64_t examined = 0;
  const PhysicalDatabase ph1 = MakePh1(*lb_);
  RaExecutor exec(&ph1);
  RaMemoState memo(*lb_, bound, options_);
  // A single-candidate sweep is where the reduction bites hardest: every
  // scan is filtered down to rows matching the one mapped tuple before any
  // join runs. A memo-served falsifying verdict still makes *this* h a
  // genuine counterexample (its image is isomorphic to the one the verdict
  // was computed in).
  const std::vector<Tuple> candidates = {candidate};
  std::vector<Value> cand;
  std::vector<char> verdicts;
  ForEachCanonicalMapping(*lb_, [&](const ConstMapping& h) {
    if (++examined > options_.max_mappings) {
      error = Status::ResourceExhausted(
          "exceeded max_mappings = " + std::to_string(options_.max_mappings));
      return false;
    }
    Status s = RaEvalUnderMapping(h, red, &exec, arity, candidates, &memo,
                                  &verdicts, &cand);
    if (!s.ok()) {
      error = s;
      return false;
    }
    if (!verdicts[0]) {
      contained = false;
      return false;  // first counterexample settles membership
    }
    return true;
  });
  last_mappings_ = examined;
  last_memo_ = memo.memo.counters();
  if (!error.ok()) return error;
  return contained;
}

Result<Relation> RaExactEvaluator::PossibleAnswer(const Query& query) {
  LQDB_RETURN_IF_ERROR(lb_->Validate());
  LQDB_ASSIGN_OR_RETURN(BoundQuery bound, Prepare(query));
  return PossiblePrepared(bound);
}

Result<Relation> RaExactEvaluator::PossibleAnswerBound(
    const BoundQuery& bound) {
  LQDB_RETURN_IF_ERROR(lb_->Validate());
  if (bound.ra_attempted()) return PossiblePrepared(bound);
  LQDB_ASSIGN_OR_RETURN(BoundQuery prepared, Prepare(bound.query()));
  return PossiblePrepared(prepared);
}

Result<Relation> RaExactEvaluator::PossiblePrepared(const BoundQuery& bound) {
  if (bound.ra_plan() == nullptr) {
    last_used_ra_ = false;
    Result<Relation> out = fallback_.PossibleAnswerBound(bound);
    last_mappings_ = fallback_.last_mappings_examined();
    last_memo_ = fallback_.last_memo_counters();
    return out;
  }
  last_used_ra_ = true;
  const ReducedPlan& red = ReducedFor(bound.ra_plan());

  const size_t arity = bound.arity();
  const ConstId n = static_cast<ConstId>(lb_->num_constants());

  // Dual pruning to Answer: candidates start dead and every mapping may
  // resurrect some; stop once all are alive.
  std::vector<Tuple> pending = AllCandidateTuples(arity, n);

  Relation answer(static_cast<int>(arity));
  Status error = Status::OK();
  uint64_t examined = 0;
  const PhysicalDatabase ph1 = MakePh1(*lb_);
  RaExecutor exec(&ph1);
  RaMemoState memo(*lb_, bound, options_);
  std::vector<Value> cand;
  std::vector<char> verdicts;
  ForEachCanonicalMapping(*lb_, [&](const ConstMapping& h) {
    if (++examined > options_.max_mappings) {
      error = Status::ResourceExhausted(
          "exceeded max_mappings = " + std::to_string(options_.max_mappings));
      return false;
    }
    Status s = RaEvalUnderMapping(h, red, &exec, arity, pending, &memo,
                                  &verdicts, &cand);
    if (!s.ok()) {
      error = s;
      return false;
    }
    size_t kept = 0;
    for (size_t k = 0; k < pending.size(); ++k) {
      if (verdicts[k]) {
        answer.Insert(std::move(pending[k]));
      } else {
        if (kept != k) pending[kept] = std::move(pending[k]);
        ++kept;
      }
    }
    pending.resize(kept);
    return !pending.empty();  // nothing left to prove possible
  });
  last_mappings_ = examined;
  last_memo_ = memo.memo.counters();
  if (!error.ok()) return error;
  return answer;
}

}  // namespace lqdb
