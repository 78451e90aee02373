#include "lqdb/cwdb/ph.h"

namespace lqdb {

PhysicalDatabase MakePh1(const CwDatabase& lb, const Vocabulary* vocab) {
  PhysicalDatabase db(vocab != nullptr ? vocab : &lb.vocab());
  db.InterpretConstantsAsThemselves();
  for (PredId p : lb.PredicatesWithFacts()) {
    for (const Tuple& t : lb.facts(p).tuples()) {
      Status s = db.AddTuple(p, t);
      (void)s;  // facts were validated on insertion into the CwDatabase
    }
  }
  return db;
}

Result<Ph2> MakePh2(const CwDatabase& lb, Vocabulary* lprime,
                    const Ph2Options& options) {
  LQDB_RETURN_IF_ERROR(lb.Validate());
  LQDB_ASSIGN_OR_RETURN(PredId ne, lprime->AddAuxiliaryPredicate(
                                       kNePredicateName, 2));
  PhysicalDatabase db = MakePh1(lb, lprime);
  if (options.materialize_ne) {
    // Built whole: the pairs are constants of `lb`, so no per-tuple
    // domain check is needed.
    Relation pairs(2);
    for (const auto& [a, b] : lb.AllDistinctPairs()) {
      pairs.Insert({a, b});
      pairs.Insert({b, a});
    }
    LQDB_RETURN_IF_ERROR(db.SetRelation(ne, std::move(pairs)));
  }
  return Ph2{std::move(db), ne};
}

}  // namespace lqdb
