// Theorem 3, executed: the hidden second-order quantification.
//
// The paper's point in §3.2 is structural, not practical: CW query
// semantics secretly contains a universal second-order quantifier. This
// example makes it concrete — it builds Q' for a tiny database, prints it
// (behold the ∀H ∀P' prefix), evaluates it with the brute-force
// second-order evaluator, and checks Q'(Ph₂(LB)) = Q(LB).
//
// It also shows certain vs *possible* answers side by side (a library
// extension): the gap between the two relations is exactly the information
// the unknown values withhold.
#include <cstdio>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/cwdb/simulation.h"
#include "lqdb/eval/answer.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"

using namespace lqdb;

int main() {
  CwDatabase lb;
  lb.AddUnknownConstant("Mystery");
  if (!lb.AddFact("T", {"Soc", "Pla"}).ok()) return 1;

  auto ph2 = MakePh2(lb, lb.mutable_vocab(), Ph2Options{});
  if (!ph2.ok()) return 1;

  auto q = ParseQuery(lb.mutable_vocab(), "(x) . !T(x, Pla)");
  if (!q.ok()) return 1;
  std::printf("Q  = %s\n\n", PrintQuery(lb.vocab(), q.value()).c_str());

  auto sim = BuildPreciseSimulation(&lb, ph2->ne, q.value());
  if (!sim.ok()) {
    std::printf("simulation failed: %s\n", sim.status().ToString().c_str());
    return 1;
  }
  std::printf("Q' = %s\n\n(%zu AST nodes; note the universal second-order "
              "prefix)\n\n",
              PrintQuery(lb.vocab(), sim->query).c_str(),
              FormulaSize(sim->query.body()));

  // Evaluate both sides of Theorem 3's identity.
  ExactEvaluator exact(&lb);
  auto lhs = exact.Answer(q.value());
  EvalOptions so_opts;
  so_opts.max_so_tuple_space = 16;
  Evaluator so_eval(&ph2->db, so_opts);
  auto rhs = so_eval.Answer(sim->query);
  if (!lhs.ok() || !rhs.ok()) {
    std::printf("evaluation failed: %s / %s\n",
                lhs.status().ToString().c_str(),
                rhs.status().ToString().c_str());
    return 1;
  }
  PhysicalDatabase ph1 = MakePh1(lb);
  std::printf("Q(LB)        = %s\n",
              AnswerToString(ph1, lhs.value()).c_str());
  std::printf("Q'(Ph2(LB))  = %s\n", AnswerToString(ph1,
                                                    rhs.value()).c_str());
  std::printf("Theorem 3 identity holds: %s\n\n",
              lhs.value() == rhs.value() ? "yes" : "NO");

  // Bonus: certain vs possible answers for the same query.
  auto possible = exact.PossibleAnswer(q.value());
  std::printf("certain answers:  %s\n",
              AnswerToString(ph1, lhs.value()).c_str());
  std::printf("possible answers: %s\n",
              AnswerToString(ph1, possible.value()).c_str());
  std::printf("(!T(Soc, Pla) holds in no world — it contradicts a stored "
              "fact; !T(Pla, Pla)\n holds in every world; Mystery might be "
              "Soc, so !T(Mystery, Pla) is possible\n but not certain.)\n");
  return 0;
}
