// Deploying a logical database on a standard relational system (§5).
//
// The paper closes with a practical recipe: store Ph₂(LB) as ordinary
// tables, compile Q to Q̂, and implement NE as a *virtual* relation
//
//     NE(x, y) ≡ NE'(x, y) ∨ (¬U(x) ∧ ¬U(y) ∧ ¬(x = y))
//
// so that the stored footprint is O(|U| + |NE'|) instead of O(|C|²). This
// example shows the whole pipeline: Q̂, the relational-algebra plan it
// compiles to, the answer that plan computes on the relational executor,
// and the storage gap between materialized and virtual NE.
#include <cstdio>

#include "lqdb/approx/approx.h"
#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/eval/answer.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/executor.h"
#include "lqdb/util/table.h"

using namespace lqdb;

int main() {
  // A registry of mostly-known customers with a couple of unresolved
  // duplicate records (classic entity-resolution nulls).
  CwDatabase lb;
  ConstId dup1 = lb.AddUnknownConstant("Dup1");
  ConstId dup2 = lb.AddUnknownConstant("Dup2");
  for (int i = 0; i < 6; ++i) {
    lb.AddKnownConstant("Cust" + std::to_string(i));
  }
  PredId vip = lb.AddPredicate("VIP", 1).value();
  (void)lb.AddFact(vip, {dup1});
  (void)lb.AddFact("VIP", {"Cust0"});
  // The two duplicate records are known to be different people, and Dup2
  // has been ruled out against the first two customers.
  (void)lb.AddDistinct(dup1, dup2);
  (void)lb.AddDistinct("Dup2", "Cust0");
  (void)lb.AddDistinct("Dup2", "Cust1");

  // --- Storage: virtual vs materialized NE. --------------------------------
  TablePrinter storage({"representation", "stored NE tuples"});
  storage.AddRow({"virtual  (U + NE')",
                  std::to_string(2 * lb.explicit_distinct().size())});
  storage.AddRow({"materialized (all pairs)",
                  std::to_string(2 * lb.CountDistinctPairs())});
  std::printf("%s\n", storage.ToString().c_str());

  // --- Compile a query with negation down to relational algebra. ----------
  ApproxOptions options;
  options.engine = ApproxEngine::kRelationalAlgebra;
  auto approx = ApproxEvaluator::Make(&lb, options);
  auto q = ParseQuery(lb.mutable_vocab(), "(x) . !VIP(x)");
  auto tq = approx.value()->Transform(q.value());
  // Q^ speaks the extended language L' = L + {NE, alpha_VIP}, which the
  // approximation builds privately: lb's own vocabulary is left untouched.
  const Vocabulary& lprime = approx.value()->vocab();
  std::printf("Q  = %s\nQ^ = %s\n\n",
              PrintQuery(lb.vocab(), q.value()).c_str(),
              PrintQuery(lprime, tq->query).c_str());

  RaCompiler compiler(&lprime);
  auto plan = compiler.Compile(tq->query);
  std::printf("relational-algebra plan:\n%s\n",
              plan.value()->ToString(lprime).c_str());

  auto answer = approx.value()->Answer(q.value());
  PhysicalDatabase ph1 = MakePh1(lb);
  std::printf("certainly not VIP: %s\n",
              AnswerToString(ph1, answer.value()).c_str());
  std::printf("(Dup2 is provably distinct from both VIP records, so it is "
              "certainly not a\n VIP. Every known customer Cust1..Cust5 "
              "*might* be the unresolved VIP record\n Dup1, so none of them "
              "can be soundly reported.)\n");
  return 0;
}
