// The builtin engine adapters: thin QueryEngine shims over the concrete
// evaluators, so every evaluation strategy in the library is reachable
// through one string-keyed API (shell, benches, differential harness).
#include <memory>
#include <utility>

#include "lqdb/cwdb/ph.h"
#include "lqdb/engine/engine.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/ra_exact.h"

namespace lqdb {
namespace {

/// Common plumbing for the adapters below: name, capabilities, and the one
/// candidate validation every builtin engine's `Contains` runs first.
class EngineBase : public QueryEngine {
 public:
  EngineBase(std::string name, EngineCapabilities capabilities,
             const CwDatabase* lb)
      : lb_(lb), name_(std::move(name)), capabilities_(capabilities) {}

  const std::string& name() const override { return name_; }
  const EngineCapabilities& capabilities() const override {
    return capabilities_;
  }

  Result<bool> Contains(const Query& query, const Tuple& candidate) final {
    LQDB_RETURN_IF_ERROR(ValidateCandidate(*lb_, query, candidate));
    return ContainsValid(query, candidate);
  }

 protected:
  /// `Contains` on a candidate that passed `ValidateCandidate`.
  virtual Result<bool> ContainsValid(const Query& query,
                                     const Tuple& candidate) = 0;

  const CwDatabase* lb_;

 private:
  std::string name_;
  EngineCapabilities capabilities_;
};

/// The Theorem 1 engines ("brute", "batched-exact", "exact"): every one is
/// an `ExactEvaluator` front-end over the shared sweep driver, differing
/// only in its mapping source and per-image check.
class ExactEngine : public EngineBase {
 public:
  ExactEngine(std::string name, EngineCapabilities caps, const CwDatabase* lb,
              std::unique_ptr<ExactEvaluator> impl)
      : EngineBase(std::move(name), caps, lb), impl_(std::move(impl)) {}

  Result<Relation> Answer(const Query& query) override {
    return impl_->Answer(query);
  }
  Result<Relation> AnswerBound(const BoundQuery& bound) override {
    return impl_->AnswerBound(bound);
  }
  Result<Relation> PossibleAnswer(const Query& query) override {
    return impl_->PossibleAnswer(query);
  }
  Result<Relation> PossibleAnswerBound(const BoundQuery& bound) override {
    return impl_->PossibleAnswerBound(bound);
  }
  uint64_t last_mappings_examined() const override {
    return impl_->last_mappings_examined();
  }
  KernelMemoCounters last_memo_counters() const override {
    return impl_->last_memo_counters();
  }

 protected:
  Result<bool> ContainsValid(const Query& query,
                             const Tuple& candidate) override {
    return impl_->Contains(query, candidate);
  }

 private:
  std::unique_ptr<ExactEvaluator> impl_;
};

class ApproxQueryEngine : public EngineBase {
 public:
  ApproxQueryEngine(std::string name, EngineCapabilities caps,
                    const CwDatabase* lb,
                    std::unique_ptr<ApproxEvaluator> impl)
      : EngineBase(std::move(name), caps, lb), impl_(std::move(impl)) {}

  Result<Relation> Answer(const Query& query) override {
    return impl_->Answer(query);
  }

 protected:
  Result<bool> ContainsValid(const Query& query,
                             const Tuple& candidate) override {
    return impl_->Contains(query, candidate);
  }

 private:
  std::unique_ptr<ApproxEvaluator> impl_;
};

/// Naive evaluation over `Ph₁(LB)`: treats every null as a distinct fresh
/// value, so it is neither sound nor complete in the presence of unknowns —
/// registered as the baseline the paper's §1 example warns about. `Ph₁` is
/// rebuilt per call so constants interned after engine creation (e.g. while
/// parsing the query) are interpreted.
class PhysicalEngine : public EngineBase {
 public:
  PhysicalEngine(std::string name, EngineCapabilities caps,
                 const CwDatabase* lb)
      : EngineBase(std::move(name), caps, lb) {}

  Result<Relation> Answer(const Query& query) override {
    PhysicalDatabase ph1 = MakePh1(*lb_);
    Evaluator eval(&ph1);
    return eval.Answer(query);
  }

 protected:
  Result<bool> ContainsValid(const Query& query,
                             const Tuple& candidate) override {
    LQDB_ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(query));
    PhysicalDatabase ph1 = MakePh1(*lb_);
    Evaluator eval(&ph1);
    std::vector<char> verdicts;
    LQDB_RETURN_IF_ERROR(
        eval.SatisfiesBatch(bound, candidate.data(), 1, &verdicts));
    return verdicts[0] != 0;
  }
};

}  // namespace

void RegisterBuiltinEngines(EngineRegistry* registry) {
  auto must_register = [registry](std::string name, EngineCapabilities caps,
                                  EngineFactory factory) {
    Status s = registry->Register(std::move(name), caps, std::move(factory));
    (void)s;  // only fails on duplicate registration, which is idempotent
  };

  {
    EngineCapabilities caps;
    caps.sound = true;
    caps.complete = true;
    caps.supports_possible = true;
    // `make` builds the engine's `ExactEvaluator` front-end from the
    // options it understands.
    auto register_exact = [&](const std::string& name, auto make) {
      must_register(name, caps,
                    [name, caps, make](const CwDatabase* lb,
                                       const EngineOptions& options)
                        -> Result<std::unique_ptr<QueryEngine>> {
                      return std::unique_ptr<QueryEngine>(
                          new ExactEngine(name, caps, lb, make(lb, options)));
                    });
    };
    register_exact("brute",
                   [](const CwDatabase* lb, const EngineOptions& options) {
                     return std::make_unique<BruteForceEvaluator>(
                         lb, options.exact);
                   });
    // "exact" is the compiled-RA engine: same Theorem 1 semantics, same
    // answers bit-for-bit (the differential suite pins this on every
    // instance), but the per-image check is the binding's semijoin-reduced
    // relational-algebra plan (compiled at prepare time, or for the one
    // call) instead of the batched Tarskian sweep — measured 1.5–10x
    // faster on the E10 large-world join rows. Queries outside the
    // compilable first-order fragment take the Tarskian check, so coverage
    // is unchanged.
    register_exact("exact",
                   [](const CwDatabase* lb, const EngineOptions& options) {
                     return std::make_unique<RaExactEvaluator>(lb,
                                                               options.exact);
                   });
    // The batched Tarskian sweep under its explicit name, so benches and
    // ablations can compare against it (see the E7/E8/E10 rows and README
    // "Engines").
    register_exact("batched-exact",
                   [](const CwDatabase* lb, const EngineOptions& options) {
                     return std::make_unique<ExactEvaluator>(lb,
                                                             options.exact);
                   });
  }
  {
    EngineCapabilities caps;
    caps.sound = true;
    caps.polynomial = true;
    must_register(
        "approx", caps,
        [caps](const CwDatabase* lb, const EngineOptions& options)
            -> Result<std::unique_ptr<QueryEngine>> {
          auto impl = ApproxEvaluator::Make(lb, options.approx);
          if (!impl.ok()) return impl.status();
          return std::unique_ptr<QueryEngine>(new ApproxQueryEngine(
              "approx", caps, lb, std::move(impl).value()));
        });
  }
  {
    EngineCapabilities caps;
    caps.polynomial = true;
    must_register(
        "physical", caps,
        [caps](const CwDatabase* lb, const EngineOptions&)
            -> Result<std::unique_ptr<QueryEngine>> {
          return std::unique_ptr<QueryEngine>(
              new PhysicalEngine("physical", caps, lb));
        });
  }
}

}  // namespace lqdb
