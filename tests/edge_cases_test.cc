#include <gtest/gtest.h>

#include <string>

#include "lqdb/approx/alpha.h"
#include "lqdb/approx/approx.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/cwdb/theory.h"
#include "lqdb/eval/answer.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "lqdb/util/rng.h"
#include "testing.h"

namespace lqdb {
namespace {

// ---------------------------------------------------------------------------
// Nullary predicates (propositional facts) through every layer.
// ---------------------------------------------------------------------------

TEST(NullaryPredicateTest, FactsTheoryAndEvaluation) {
  CwDatabase lb;
  lb.AddKnownConstant("Anchor");  // models need a nonempty domain
  PredId open = lb.AddPredicate("SHOP_OPEN", 0).value();
  PredId closed = lb.AddPredicate("SHOP_CLOSED", 0).value();
  ASSERT_OK(lb.AddFact(open, {}));

  // Theory: completion of the factless proposition is its negation.
  Theory theory = TheoryOf(&lb);
  std::string text = PrintTheory(lb.vocab(), theory);
  EXPECT_NE(text.find("SHOP_OPEN()"), std::string::npos);
  EXPECT_NE(text.find("!SHOP_CLOSED()"), std::string::npos);

  ExactEvaluator exact(&lb);
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query q_open, ParseQuery(vocab, "SHOP_OPEN()"));
  ASSERT_OK_AND_ASSIGN(bool open_sure, exact.Contains(q_open, {}));
  EXPECT_TRUE(open_sure);
  ASSERT_OK_AND_ASSIGN(Query q_closed,
                       ParseQuery(vocab, "!SHOP_CLOSED()"));
  ASSERT_OK_AND_ASSIGN(bool closed_sure, exact.Contains(q_closed, {}));
  EXPECT_TRUE(closed_sure);
  (void)closed;
}

TEST(NullaryPredicateTest, ApproximationHandlesNegatedPropositions) {
  CwDatabase lb;
  lb.AddKnownConstant("Anchor");
  PredId open = lb.AddPredicate("OPEN", 0).value();
  lb.AddPredicate("CLOSED", 0).value();
  ASSERT_OK(lb.AddFact(open, {}));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                       ApproxEvaluator::Make(&lb, ApproxOptions{}));
  Vocabulary* vocab = lb.mutable_vocab();
  // ¬CLOSED() is certain (completion axiom) and the α transform must get
  // it: α_CLOSED() is vacuously true (no facts to agree with).
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(vocab, "!CLOSED()"));
  ASSERT_OK_AND_ASSIGN(Relation answer, approx->Answer(q));
  EXPECT_TRUE(BooleanAnswer(answer));
  // ¬OPEN() is not certain — indeed it is certainly false — and must not
  // be claimed: α_OPEN() requires disagreeing with the stored empty
  // tuple, which is impossible.
  ASSERT_OK_AND_ASSIGN(Query q2, ParseQuery(vocab, "!OPEN()"));
  ASSERT_OK_AND_ASSIGN(Relation answer2, approx->Answer(q2));
  EXPECT_FALSE(BooleanAnswer(answer2));
}

// ---------------------------------------------------------------------------
// Lemma 10 at higher arity: ternary predicates, longer disagreement chains.
// ---------------------------------------------------------------------------

TEST(TernaryAlphaTest, SyntacticMatchesSemanticAtArity3) {
  CwDatabase lb;
  ConstId a = lb.AddKnownConstant("A");
  ConstId b = lb.AddKnownConstant("B");
  ConstId u = lb.AddUnknownConstant("U");
  ConstId w = lb.AddUnknownConstant("W");
  PredId t = lb.AddPredicate("T3", 3).value();
  ASSERT_OK(lb.AddFact(t, {a, u, w}));
  ASSERT_OK(lb.AddFact(t, {u, u, b}));
  ASSERT_OK_AND_ASSIGN(Ph2 ph2, MakePh2(lb, lb.mutable_vocab(), Ph2Options{}));

  std::vector<VarId> xs;
  for (int i = 0; i < 3; ++i) {
    xs.push_back(lb.mutable_vocab()->FreshVariable("e" + std::to_string(i)));
  }
  FormulaPtr alpha = BuildAlpha(lb.mutable_vocab(), t, ph2.ne, xs);
  Evaluator eval(&ph2.db);

  const ConstId n = static_cast<ConstId>(lb.num_constants());
  Tuple probe(3, 0);
  int checked = 0;
  while (true) {
    std::map<VarId, Value> binding;
    for (int i = 0; i < 3; ++i) binding[xs[i]] = probe[i];
    ASSERT_OK_AND_ASSIGN(bool syntactic, eval.SatisfiesWith(alpha, binding));
    EXPECT_EQ(syntactic, AlphaHolds(lb, t, probe))
        << TupleToString(probe, [&](Value v) {
             return lb.vocab().ConstantName(v);
           });
    ++checked;
    size_t pos = 0;
    while (pos < probe.size() && ++probe[pos] == n) {
      probe[pos] = 0;
      ++pos;
    }
    if (pos == probe.size()) break;
  }
  EXPECT_EQ(checked, 64);  // 4^3 probes
}

TEST(TernaryAlphaTest, ChainedDisagreementThroughSharedPositions) {
  CwDatabase lb;
  ConstId a = lb.AddKnownConstant("A");
  ConstId b = lb.AddKnownConstant("B");
  ConstId u = lb.AddUnknownConstant("U");
  // Probe (u, u, u) against fact (a, u, b): merging forces u~a and u~b,
  // hence a~b — which is forbidden.
  EXPECT_TRUE(Disagree(lb, {u, u, u}, {a, u, b}));
  // Against (a, u, u): only u~a is forced — satisfiable.
  EXPECT_FALSE(Disagree(lb, {u, u, u}, {a, u, u}));
}

// ---------------------------------------------------------------------------
// Parser robustness: fuzzing with deterministic random garbage.
// ---------------------------------------------------------------------------

TEST(ParserFuzzTest, RandomGarbageNeverCrashes) {
  const std::string alphabet =
      "abcXY01(),.!&|<->= \t_exists2forall/#\"'";
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    std::string input;
    const size_t len = rng.Below(60);
    for (size_t i = 0; i < len; ++i) {
      input += alphabet[rng.Below(alphabet.size())];
    }
    Vocabulary v;
    auto formula = ParseFormula(&v, input);   // must not crash or hang
    auto query = ParseQuery(&v, input);
    if (formula.ok()) {
      // Whatever parses must print and re-parse stably.
      std::string printed = PrintFormula(v, formula.value());
      auto again = ParseFormula(&v, printed);
      ASSERT_TRUE(again.ok()) << "seed " << seed << ": " << printed;
      EXPECT_EQ(PrintFormula(v, again.value()), printed) << "seed " << seed;
    }
    (void)query;
  }
}

TEST(ParserFuzzTest, TokenSoupNeverCrashes) {
  const char* tokens[] = {"exists", "forall", "exists2", "forall2", "P",
                          "x",      "A",      "(",       ")",       ",",
                          ".",      "=",      "!=",      "!",       "&",
                          "|",      "->",     "<->",     "/",       "1"};
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    std::string input;
    const size_t len = rng.Below(25);
    for (size_t i = 0; i < len; ++i) {
      input += tokens[rng.Below(std::size(tokens))];
      input += " ";
    }
    Vocabulary v;
    auto result = ParseFormula(&v, input);
    (void)result;  // any Status is fine; crashing is not
  }
}

// ---------------------------------------------------------------------------
// Degenerate databases.
// ---------------------------------------------------------------------------

TEST(DegenerateDbTest, SingleUnknownConstant) {
  CwDatabase lb;
  lb.AddUnknownConstant("Only");
  ExactEvaluator exact(&lb);
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(vocab, "forall x. x = Only"));
  ASSERT_OK_AND_ASSIGN(bool certain, exact.Contains(q, {}));
  EXPECT_TRUE(certain);  // domain closure with one constant
  EXPECT_EQ(CountCanonicalMappings(lb), 1u);
}

TEST(DegenerateDbTest, AllUnknownsCollapseCount) {
  // With u unconstrained unknowns the mapping space is the Bell number,
  // and every Boolean positive query behaves as over Ph1.
  CwDatabase lb;
  for (int i = 0; i < 4; ++i) {
    lb.AddUnknownConstant("u" + std::to_string(i));
  }
  PredId p = lb.AddPredicate("P", 1).value();
  ASSERT_OK(lb.AddFact(p, {0}));
  EXPECT_EQ(CountCanonicalMappings(lb), 15u);  // B(4)

  ExactEvaluator exact(&lb);
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(vocab, "exists x. P(x)"));
  ASSERT_OK_AND_ASSIGN(bool certain, exact.Contains(q, {}));
  EXPECT_TRUE(certain);
}

TEST(DegenerateDbTest, EverythingMightBeEqual) {
  // Two unknowns, no axioms: even x != y for distinct ids is uncertain,
  // and so is x = y — classic null semantics.
  CwDatabase lb;
  lb.AddUnknownConstant("n1");
  lb.AddUnknownConstant("n2");
  ExactEvaluator exact(&lb);
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query eq, ParseQuery(vocab, "n1 = n2"));
  ASSERT_OK_AND_ASSIGN(bool eq_sure, exact.Contains(eq, {}));
  EXPECT_FALSE(eq_sure);
  ASSERT_OK_AND_ASSIGN(Query neq, ParseQuery(vocab, "n1 != n2"));
  ASSERT_OK_AND_ASSIGN(bool neq_sure, exact.Contains(neq, {}));
  EXPECT_FALSE(neq_sure);
}

// ---------------------------------------------------------------------------
// Answer arity 2: exact/approx agreement sweeps beyond the arity-1 pools.
// ---------------------------------------------------------------------------

TEST(BinaryHeadTest, SoundnessAndPositiveCompletenessAtArity2) {
  for (uint64_t seed = 500; seed < 506; ++seed) {
    testing::RandomDbParams params;
    params.num_known = 3;
    params.num_unknown = 2;
    auto lb = testing::RandomCwDatabase(seed, params);

    testing::RandomFormulaParams fparams;
    fparams.free_vars = {"hx", "hy"};
    fparams.max_depth = 3;
    Query q = testing::RandomQuery(seed, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(q));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                         ApproxEvaluator::Make(lb.get(), ApproxOptions{}));
    ASSERT_OK_AND_ASSIGN(Relation approx_answer, approx->Answer(q));
    EXPECT_TRUE(approx_answer.IsSubsetOf(exact_answer)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lqdb
