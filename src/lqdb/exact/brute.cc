#include "lqdb/exact/brute.h"

#include <cmath>
#include <map>

#include "lqdb/cwdb/theory.h"

namespace lqdb {

uint64_t SaturatingPower(uint64_t base, uint64_t exp) {
  uint64_t result = 1;
  for (uint64_t i = 0; i < exp; ++i) {
    if (base != 0 && result > UINT64_MAX / base) return UINT64_MAX;
    result *= base;
  }
  return result;
}

namespace {

ExactOptions InOrder(ExactOptions options) {
  options.threads = 1;  // the all-functions source walks in order
  return options;
}

/// Odometer helper enumerating tuples over `space[i]` positions.
bool NextIndex(std::vector<size_t>* idx, size_t bound) {
  size_t pos = 0;
  while (pos < idx->size() && ++(*idx)[pos] == bound) {
    (*idx)[pos] = 0;
    ++pos;
  }
  return pos != idx->size();
}

}  // namespace

BruteForceEvaluator::BruteForceEvaluator(const CwDatabase* lb,
                                         ExactOptions options)
    : ExactEvaluator(lb, InOrder(options), MappingSource::kAllFunctions) {}

Result<bool> ModelEnumerationContains(CwDatabase* lb, const Query& query,
                                      const Tuple& candidate,
                                      const ModelEnumOptions& options) {
  LQDB_RETURN_IF_ERROR(lb->Validate());
  if (candidate.size() != query.arity()) {
    return Status::InvalidArgument("candidate arity does not match query");
  }
  const size_t n = lb->num_constants();
  const std::vector<PredId> schema = lb->vocab().SchemaPredicates();

  // Estimate the enumeration size: Σ_D |D|^n * Π_P 2^(|D|^arity(P)).
  double total = 0;
  for (size_t mask = 1; mask < (1u << n); ++mask) {
    const int d = __builtin_popcount(static_cast<unsigned>(mask));
    double models = std::pow(d, n);
    for (PredId p : schema) {
      models *= std::pow(2.0, std::pow(d, lb->vocab().PredicateArity(p)));
    }
    total += models;
    if (total > options.max_models) {
      return Status::ResourceExhausted(
          "model enumeration would examine ~" + std::to_string(total) +
          " interpretations");
    }
  }

  const Theory theory = TheoryOf(lb);
  const std::vector<FormulaPtr> sentences = theory.AllSentences();

  for (size_t mask = 1; mask < (1u << n); ++mask) {
    // Domain = the constants selected by the mask.
    std::vector<Value> domain;
    for (size_t c = 0; c < n; ++c) {
      if (mask & (1u << c)) domain.push_back(static_cast<Value>(c));
    }
    // Every assignment of constants to domain values.
    std::vector<size_t> cidx(n, 0);
    while (true) {
      // Every assignment of relations: odometer over subsets of each
      // predicate's tuple space.
      std::vector<std::vector<Tuple>> spaces;
      std::vector<uint64_t> rel_masks(schema.size(), 0);
      bool feasible = true;
      for (PredId p : schema) {
        const int arity = lb->vocab().PredicateArity(p);
        std::vector<Tuple> space;
        std::vector<size_t> idx(arity, 0);
        while (true) {
          Tuple t(arity);
          for (int i = 0; i < arity; ++i) t[i] = domain[idx[i]];
          space.push_back(std::move(t));
          if (arity == 0 || !NextIndex(&idx, domain.size())) break;
        }
        if (space.size() > 24) {
          feasible = false;
          break;
        }
        spaces.push_back(std::move(space));
      }
      if (!feasible) {
        return Status::ResourceExhausted("relation space too large");
      }

      while (true) {
        PhysicalDatabase db(&lb->vocab());
        for (Value v : domain) db.AddDomainValue(v);
        for (size_t c = 0; c < n; ++c) {
          LQDB_RETURN_IF_ERROR(
              db.SetConstant(static_cast<ConstId>(c), domain[cidx[c]]));
        }
        for (size_t pi = 0; pi < schema.size(); ++pi) {
          for (size_t ti = 0; ti < spaces[pi].size(); ++ti) {
            if (rel_masks[pi] & (1ull << ti)) {
              LQDB_RETURN_IF_ERROR(db.AddTuple(schema[pi], spaces[pi][ti]));
            }
          }
        }

        Evaluator eval(&db, options.eval);
        bool is_model = true;
        for (const FormulaPtr& s : sentences) {
          LQDB_ASSIGN_OR_RETURN(bool sat, eval.Satisfies(s));
          if (!sat) {
            is_model = false;
            break;
          }
        }
        if (is_model) {
          std::map<VarId, Value> binding;
          for (size_t i = 0; i < candidate.size(); ++i) {
            binding[query.head()[i]] = db.ConstantValue(candidate[i]);
          }
          LQDB_ASSIGN_OR_RETURN(bool sat,
                                eval.SatisfiesWith(query.body(), binding));
          if (!sat) return false;  // countermodel found
        }

        // Advance the relation-mask odometer.
        size_t pi = 0;
        while (pi < schema.size()) {
          ++rel_masks[pi];
          if (rel_masks[pi] < (1ull << spaces[pi].size())) break;
          rel_masks[pi] = 0;
          ++pi;
        }
        if (pi == schema.size()) break;
      }
      if (!NextIndex(&cidx, domain.size())) break;
    }
  }
  return true;
}

}  // namespace lqdb
