#include "lqdb/approx/approx.h"

#include "lqdb/ra/compiler.h"
#include "lqdb/ra/executor.h"

namespace lqdb {

Result<std::unique_ptr<ApproxEvaluator>> ApproxEvaluator::Make(
    const CwDatabase* lb, ApproxOptions options) {
  if (lb == nullptr) return Status::InvalidArgument("null database");
  LQDB_RETURN_IF_ERROR(lb->Validate());
  return std::unique_ptr<ApproxEvaluator>(new ApproxEvaluator(lb, options));
}

Result<TransformedQuery> ApproxEvaluator::Transform(const Query& query) {
  if (options_.engine == ApproxEngine::kRelationalAlgebra &&
      options_.alpha_mode != AlphaMode::kVirtual) {
    return Status::InvalidArgument(
        "the relational-algebra engine requires AlphaMode::kVirtual "
        "(alpha extensions are materialized as stored relations)");
  }
  // This call's L′ and Ph₂, from the database as it is now. The RA engine
  // reads `NE` as a stored relation, so it always has it materialized.
  ph2_.reset();
  vocab_ = std::make_unique<Vocabulary>(lb_->vocab());
  Ph2Options ph2_options;
  ph2_options.materialize_ne =
      options_.materialize_ne ||
      options_.engine == ApproxEngine::kRelationalAlgebra;
  LQDB_ASSIGN_OR_RETURN(Ph2 ph2, MakePh2(*lb_, vocab_.get(), ph2_options));
  ph2_.emplace(std::move(ph2));
  TransformOptions topt;
  topt.alpha_mode = options_.alpha_mode;
  return QueryTransformer(vocab_.get(), ph2_->ne).Transform(query, topt);
}

Result<Relation> ApproxEvaluator::Answer(const Query& query) {
  LQDB_ASSIGN_OR_RETURN(TransformedQuery tq, Transform(query));
  if (options_.engine == ApproxEngine::kRelationalAlgebra) {
    return AnswerWithRa(tq);
  }
  return AnswerWithEvaluator(tq);
}

Result<bool> ApproxEvaluator::Contains(const Query& query,
                                       const Tuple& candidate) {
  if (candidate.size() != query.arity()) {
    return Status::InvalidArgument("candidate arity does not match query");
  }
  LQDB_ASSIGN_OR_RETURN(Relation answer, Answer(query));
  return answer.Contains(candidate);
}

Result<Relation> ApproxEvaluator::AnswerWithEvaluator(
    const TransformedQuery& tq) {
  ApproxProvider provider(lb_, ph2_->ne);
  for (const auto& [alpha, source] : tq.alpha_preds) {
    provider.RegisterAlpha(alpha, source);
  }
  Evaluator eval(&ph2_->db);
  eval.set_virtual_provider(&provider);
  return eval.Answer(tq.query);
}

Result<Relation> ApproxEvaluator::AnswerWithRa(const TransformedQuery& tq) {
  // Scratch copy of Ph₂ (NE materialized) with the needed α_P extensions
  // added as ordinary stored relations — exactly what a deployment on a
  // standard relational DBMS would keep as tables / materialized views.
  PhysicalDatabase scratch = ph2_->db;
  for (const auto& [alpha, source] : tq.alpha_preds) {
    const int arity = lb_->vocab().PredicateArity(source);
    Relation ext(arity);
    // Enumerate C^arity; polynomial for a fixed-arity schema (Theorem 14).
    const ConstId n = static_cast<ConstId>(lb_->num_constants());
    Tuple t(arity, 0);
    while (true) {
      if (AlphaHolds(*lb_, source, t)) ext.Insert(t);
      size_t pos = 0;
      while (pos < t.size() && ++t[pos] == n) {
        t[pos] = 0;
        ++pos;
      }
      if (pos == t.size()) break;
    }
    LQDB_RETURN_IF_ERROR(scratch.SetRelation(alpha, std::move(ext)));
  }

  RaCompiler compiler(vocab_.get());
  LQDB_ASSIGN_OR_RETURN(PlanPtr plan, compiler.Compile(tq.query));
  RaExecutor executor(&scratch);
  LQDB_ASSIGN_OR_RETURN(RaTable table, executor.Execute(plan));
  return std::move(table.rel);
}

}  // namespace lqdb
