#include "lqdb/exact/exact.h"

#include <optional>
#include <utility>

#include "lqdb/exact/sweep.h"
#include "lqdb/util/thread_pool.h"

namespace lqdb {

Status ValidateCandidate(const CwDatabase& lb, const Query& query,
                         const Tuple& candidate) {
  if (candidate.size() != query.arity()) {
    return Status::InvalidArgument("candidate arity does not match query");
  }
  for (Value v : candidate) {
    if (v >= lb.num_constants()) {
      return Status::InvalidArgument("candidate references unknown constant");
    }
  }
  return Status::OK();
}

std::vector<Tuple> AllCandidateTuples(size_t arity, ConstId n) {
  // A positive arity over an empty constant set has no tuples; without this
  // guard the odometer below would emit bogus rows that index past the end
  // of every mapping `h`.
  if (n == 0 && arity > 0) return {};
  std::vector<Tuple> out;
  Tuple t(arity, 0);
  while (true) {
    out.push_back(t);
    size_t pos = 0;
    while (pos < arity && ++t[pos] == n) {
      t[pos] = 0;
      ++pos;
    }
    if (pos == arity) break;
  }
  return out;
}

ExactEvaluator::ExactEvaluator(const CwDatabase* lb, ExactOptions options,
                               MappingSource source)
    : lb_(lb), options_(options), source_(source) {
  const int threads = options.threads > 0 ? options.threads
                                          : ThreadPool::DefaultThreads();
  if (threads != 1) pool_ = std::make_unique<ThreadPool>(threads);
}

ExactEvaluator::~ExactEvaluator() = default;

int ExactEvaluator::threads() const {
  return pool_ == nullptr ? 1 : pool_->num_threads();
}

Result<Relation> ExactEvaluator::Sweep(
    const BoundQuery& bound, const Tuple* candidate, bool possible,
    std::optional<Counterexample>* decisive) {
  LQDB_RETURN_IF_ERROR(lb_->Validate());
  std::optional<BoundQuery> scratch;
  LQDB_ASSIGN_OR_RETURN(const ReducedPlan* plan,
                        CompiledCheck(bound, &scratch));
  const SweepSpec spec{lb_, &bound, plan, source_, pool_.get(),
                       possible, &options_};
  std::vector<Tuple> candidates =
      candidate != nullptr
          ? std::vector<Tuple>{*candidate}
          : AllCandidateTuples(bound.arity(),
                               static_cast<ConstId>(lb_->num_constants()));
  SweepResult result;
  const Status status = RunSweep(spec, std::move(candidates), &result);
  last_mappings_ = result.mappings;
  last_memo_ = result.memo;
  last_worker_ranges_ = std::move(result.worker_ranges);
  if (!status.ok()) return status;
  if (decisive != nullptr && result.decisive.has_value()) {
    *decisive = Counterexample{std::move(*result.decisive)};
  }
  return std::move(result.answer);
}

Result<bool> ExactEvaluator::Decide(const Query& query, const Tuple& candidate,
                                    bool possible,
                                    std::optional<Counterexample>* decisive) {
  LQDB_RETURN_IF_ERROR(ValidateCandidate(*lb_, query, candidate));
  if (decisive != nullptr) decisive->reset();
  LQDB_ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(query));
  LQDB_ASSIGN_OR_RETURN(Relation answer,
                        Sweep(bound, &candidate, possible, decisive));
  return !answer.empty();
}

Result<Relation> ExactEvaluator::Answer(const Query& query) {
  LQDB_ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(query));
  return AnswerBound(bound);
}

Result<Relation> ExactEvaluator::AnswerBound(const BoundQuery& bound) {
  return Sweep(bound, nullptr, /*possible=*/false, nullptr);
}

Result<bool> ExactEvaluator::Contains(
    const Query& query, const Tuple& candidate,
    std::optional<Counterexample>* counterexample) {
  return Decide(query, candidate, /*possible=*/false, counterexample);
}

Result<Relation> ExactEvaluator::PossibleAnswer(const Query& query) {
  LQDB_ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(query));
  return PossibleAnswerBound(bound);
}

Result<Relation> ExactEvaluator::PossibleAnswerBound(const BoundQuery& bound) {
  return Sweep(bound, nullptr, /*possible=*/true, nullptr);
}

Result<bool> ExactEvaluator::IsPossible(
    const Query& query, const Tuple& candidate,
    std::optional<Counterexample>* witness) {
  return Decide(query, candidate, /*possible=*/true, witness);
}

}  // namespace lqdb
