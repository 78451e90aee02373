// The §5 approximation algorithm, end to end.
//
// Shows the query transform Q → Q̂ (including the O(k log k) Lemma 10
// disagreement formula in its full syntactic glory), then measures how much
// of the exact answer the approximation recovers as the number of unknown
// values grows — sound always (Theorem 11), complete at zero unknowns
// (Theorem 12) and for positive queries (Theorem 13).
#include <cstdio>

#include "lqdb/approx/approx.h"
#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "lqdb/util/rng.h"
#include "lqdb/util/table.h"

using namespace lqdb;

namespace {

/// A parts/suppliers world with `unknowns` anonymous suppliers.
CwDatabase MakeWorld(int known_suppliers, int unknowns, uint64_t seed) {
  Rng rng(seed);
  CwDatabase lb;
  for (int i = 0; i < unknowns; ++i) {
    lb.AddUnknownConstant("Anon" + std::to_string(i));
  }
  for (int i = 0; i < known_suppliers; ++i) {
    lb.AddKnownConstant("S" + std::to_string(i));
  }
  PredId supplies = lb.AddPredicate("SUPPLIES", 2).value();
  PredId local = lb.AddPredicate("LOCAL", 1).value();
  ConstId widget = lb.AddKnownConstant("Widget");
  ConstId gadget = lb.AddKnownConstant("Gadget");
  const size_t n = lb.num_constants();
  for (size_t c = 0; c + 2 < n; ++c) {
    if (rng.Chance(0.5)) {
      (void)lb.AddFact(supplies, {static_cast<ConstId>(c), widget});
    }
    if (rng.Chance(0.3)) {
      (void)lb.AddFact(supplies, {static_cast<ConstId>(c), gadget});
    }
    if (rng.Chance(0.5)) {
      (void)lb.AddFact(local, {static_cast<ConstId>(c)});
    }
  }
  return lb;
}

}  // namespace

int main() {
  // --- Part 1: the transform, made visible. -------------------------------
  {
    CwDatabase lb = MakeWorld(2, 1, 7);
    auto ph2 = MakePh2(lb, lb.mutable_vocab(), Ph2Options{});
    QueryTransformer transformer(lb.mutable_vocab(), ph2->ne);
    auto q = ParseQuery(lb.mutable_vocab(),
                        "(x) . LOCAL(x) & !SUPPLIES(x, Gadget)");
    std::printf("Q  = %s\n\n", PrintQuery(lb.vocab(), q.value()).c_str());

    TransformOptions virt;
    auto tq1 = transformer.Transform(q.value(), virt);
    std::printf("Q^ (virtual alpha atoms, Theorem 14's polynomial "
                "evaluation):\n  %s\n\n",
                PrintQuery(lb.vocab(), tq1->query).c_str());

    TransformOptions syn;
    syn.alpha_mode = AlphaMode::kSyntactic;
    auto tq2 = transformer.Transform(q.value(), syn);
    std::printf("Q^ (full Lemma 10 formula, %zu AST nodes):\n  %s\n\n",
                FormulaSize(tq2->query.body()),
                PrintQuery(lb.vocab(), tq2->query).c_str());
  }

  // --- Part 2: recall as unknowns grow. ------------------------------------
  std::printf("Recall of the approximation on a NON-positive query\n");
  std::printf("  Q = (x) . LOCAL(x) & !SUPPLIES(x, Gadget)\n");
  TablePrinter table({"unknowns", "|Q(LB)| exact", "|A(Q,LB)| approx",
                      "recall", "sound?"});
  for (int unknowns = 0; unknowns <= 4; ++unknowns) {
    CwDatabase lb = MakeWorld(4, unknowns, 42 + unknowns);
    auto q = ParseQuery(lb.mutable_vocab(),
                        "(x) . LOCAL(x) & !SUPPLIES(x, Gadget)");
    ExactEvaluator exact(&lb);
    auto exact_answer = exact.Answer(q.value());
    auto approx = ApproxEvaluator::Make(&lb);
    auto approx_answer = approx.value()->Answer(q.value());
    double recall =
        exact_answer->empty()
            ? 1.0
            : static_cast<double>(approx_answer->size()) /
                  static_cast<double>(exact_answer->size());
    table.AddRow({std::to_string(unknowns),
                  std::to_string(exact_answer->size()),
                  std::to_string(approx_answer->size()),
                  FormatDouble(recall, 2),
                  approx_answer->IsSubsetOf(*exact_answer) ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Theorem 12: recall is 1.00 at unknowns = 0.\n");
  std::printf("Theorem 11: the 'sound?' column never says NO.\n\n");

  // --- Part 3: positive queries are exact regardless of unknowns. ----------
  std::printf("Recall on the POSITIVE query (x) . exists p. "
              "SUPPLIES(x, p)\n");
  TablePrinter table2({"unknowns", "exact", "approx", "recall"});
  for (int unknowns = 0; unknowns <= 4; ++unknowns) {
    CwDatabase lb = MakeWorld(4, unknowns, 42 + unknowns);
    auto q = ParseQuery(lb.mutable_vocab(),
                        "(x) . exists p. SUPPLIES(x, p)");
    ExactEvaluator exact(&lb);
    auto exact_answer = exact.Answer(q.value());
    auto approx = ApproxEvaluator::Make(&lb);
    auto approx_answer = approx.value()->Answer(q.value());
    double recall =
        exact_answer->empty()
            ? 1.0
            : static_cast<double>(approx_answer->size()) /
                  static_cast<double>(exact_answer->size());
    table2.AddRow({std::to_string(unknowns),
                   std::to_string(exact_answer->size()),
                   std::to_string(approx_answer->size()),
                   FormatDouble(recall, 2)});
  }
  std::printf("%s\n", table2.ToString().c_str());
  std::printf("Theorem 13: recall is 1.00 on every row.\n");
  return 0;
}
