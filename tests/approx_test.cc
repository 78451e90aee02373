#include <gtest/gtest.h>

#include "lqdb/approx/alpha.h"
#include "lqdb/approx/approx.h"
#include "lqdb/approx/transform.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/eval/answer.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/classify.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "testing.h"

namespace lqdb {
namespace {

using testing::RandomCwDatabase;
using testing::RandomDbParams;
using testing::RandomFormulaParams;
using testing::RandomQuery;

TEST(ConnectivityTest, SmallPathsEvaluateCorrectly) {
  // Graph A - B, C isolated, edges via stored predicate E.
  Vocabulary vocab;
  ConstId a = vocab.AddConstant("A");
  ConstId b = vocab.AddConstant("B");
  ConstId c = vocab.AddConstant("C");
  ConstId d = vocab.AddConstant("D");
  PredId e = vocab.AddPredicate("E", 2).value();
  PhysicalDatabase db(&vocab);
  db.InterpretConstantsAsThemselves();
  ASSERT_OK(db.AddTuple(e, {a, b}));
  ASSERT_OK(db.AddTuple(e, {b, c}));

  VarId u = vocab.AddVariable("cu");
  VarId v = vocab.AddVariable("cv");
  EdgeFormulaFn edge = [&](Term s, Term t) {
    // Symmetric closure of E.
    return Formula::Or(Formula::Atom(e, {s, t}), Formula::Atom(e, {t, s}));
  };
  FormulaPtr conn = BuildConnectivity(&vocab, 4, Term::Variable(u),
                                      Term::Variable(v), edge);
  Evaluator eval(&db);
  auto connected = [&](Value from, Value to) {
    auto r = eval.SatisfiesWith(conn, {{u, from}, {v, to}});
    EXPECT_TRUE(r.ok()) << r.status();
    return r.value_or(false);
  };
  EXPECT_TRUE(connected(a, a));  // trivial path
  EXPECT_TRUE(connected(a, b));
  EXPECT_TRUE(connected(a, c));  // length 2
  EXPECT_TRUE(connected(c, a));
  EXPECT_FALSE(connected(a, d));
  EXPECT_FALSE(connected(d, b));
}

TEST(ConnectivityTest, SizeIsLogarithmic) {
  Vocabulary vocab;
  PredId e = vocab.AddPredicate("E", 2).value();
  VarId u = vocab.AddVariable("cu");
  VarId v = vocab.AddVariable("cv");
  EdgeFormulaFn edge = [&](Term s, Term t) {
    return Formula::Atom(e, {s, t});
  };
  size_t size8 = FormulaSize(BuildConnectivity(&vocab, 8, Term::Variable(u),
                                               Term::Variable(v), edge));
  size_t size64 = FormulaSize(BuildConnectivity(&vocab, 64, Term::Variable(u),
                                                Term::Variable(v), edge));
  // Doubling levels: 3 vs 6 — each level adds a constant number of nodes.
  size_t per_level = (size64 - size8) / 3;
  EXPECT_GT(per_level, 0u);
  EXPECT_LT(size64, size8 + 4 * per_level);
}

TEST(AlphaTest, DisagreeDetectsForcedConflicts) {
  CwDatabase lb;
  ConstId a = lb.AddKnownConstant("A");
  ConstId b = lb.AddKnownConstant("B");
  ConstId u = lb.AddUnknownConstant("U");
  ConstId w = lb.AddUnknownConstant("W");

  // Directly conflicting positions.
  EXPECT_TRUE(Disagree(lb, {a}, {b}));
  EXPECT_FALSE(Disagree(lb, {a}, {a}));
  EXPECT_FALSE(Disagree(lb, {u}, {a}));

  // Conflict through a chain: merging (u,u) with (a,b) forces a ~ u ~ b.
  EXPECT_TRUE(Disagree(lb, {u, u}, {a, b}));
  // No conflict: merging (u,w) with (a,b) keeps a, b apart.
  EXPECT_FALSE(Disagree(lb, {u, w}, {a, b}));
  // Empty tuples never disagree.
  EXPECT_FALSE(Disagree(lb, {}, {}));
}

TEST(AlphaTest, AlphaHoldsIffDisagreesWithEveryFact) {
  CwDatabase lb;
  ConstId a = lb.AddKnownConstant("A");
  ConstId b = lb.AddKnownConstant("B");
  ConstId c = lb.AddKnownConstant("C");
  ConstId u = lb.AddUnknownConstant("U");
  PredId p = lb.AddPredicate("P", 1).value();
  ASSERT_OK(lb.AddFact(p, {a}));
  ASSERT_OK(lb.AddFact(p, {b}));

  EXPECT_TRUE(AlphaHolds(lb, p, {c}));   // c differs from both facts
  EXPECT_FALSE(AlphaHolds(lb, p, {a}));  // a agrees with the first fact
  EXPECT_FALSE(AlphaHolds(lb, p, {u}));  // u might be a or b
  ASSERT_OK(lb.AddDistinct(u, a));
  EXPECT_FALSE(AlphaHolds(lb, p, {u}));  // u might still be b
  ASSERT_OK(lb.AddDistinct(u, b));
  EXPECT_TRUE(AlphaHolds(lb, p, {u}));
}

TEST(AlphaTest, FactlessPredicateAlphaIsUniversallyTrue) {
  CwDatabase lb;
  lb.AddKnownConstant("A");
  PredId p = lb.AddPredicate("P", 1).value();
  EXPECT_TRUE(AlphaHolds(lb, p, {0}));
}

/// Lemma 10: the syntactic α_P formula evaluated over Ph₂ agrees with the
/// semantic disagreement predicate on every argument tuple.
TEST(AlphaTest, SyntacticMatchesSemanticOnRandomDatabases) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    RandomDbParams params;
    params.num_known = 3;
    params.num_unknown = 2;
    auto lb = RandomCwDatabase(seed, params);
    ASSERT_OK_AND_ASSIGN(Ph2 ph2,
                         MakePh2(*lb, lb->mutable_vocab(), Ph2Options{}));

    for (PredId p : lb->vocab().SchemaPredicates()) {
      const int arity = lb->vocab().PredicateArity(p);
      std::vector<VarId> xs;
      for (int i = 0; i < arity; ++i) {
        xs.push_back(
            lb->mutable_vocab()->FreshVariable("tx" + std::to_string(i)));
      }
      FormulaPtr alpha = BuildAlpha(lb->mutable_vocab(), p, ph2.ne, xs);
      Evaluator eval(&ph2.db);

      // Sweep every argument tuple over C.
      const ConstId n = static_cast<ConstId>(lb->num_constants());
      Tuple t(arity, 0);
      while (true) {
        std::map<VarId, Value> binding;
        for (int i = 0; i < arity; ++i) binding[xs[i]] = t[i];
        ASSERT_OK_AND_ASSIGN(bool syntactic,
                             eval.SatisfiesWith(alpha, binding));
        EXPECT_EQ(syntactic, AlphaHolds(*lb, p, t))
            << "seed " << seed << " pred "
            << lb->vocab().PredicateName(p) << " args "
            << TupleToString(t, [&](Value v) {
                 return lb->vocab().ConstantName(v);
               });
        size_t pos = 0;
        while (pos < t.size() && ++t[pos] == n) {
          t[pos] = 0;
          ++pos;
        }
        if (pos == t.size()) break;
      }
    }
  }
}

TEST(TransformTest, RewritesNegatedLeaves) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  ASSERT_OK_AND_ASSIGN(Ph2 ph2, MakePh2(lb, lb.mutable_vocab(), Ph2Options{}));
  QueryTransformer transformer(lb.mutable_vocab(), ph2.ne);

  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb.mutable_vocab(),
                          "(x, y) . !(P(x) & x = y)"));
  ASSERT_OK_AND_ASSIGN(TransformedQuery tq, transformer.Transform(q));
  // NNF turns the body into !P(x) | x != y, then the leaves rewrite.
  std::string printed = PrintFormula(lb.vocab(), tq.query.body());
  EXPECT_EQ(printed, "__alpha_P(x) | NE(x, y)");
  EXPECT_EQ(tq.alpha_preds.size(), 1u);
}

TEST(TransformTest, PositiveQueriesPassThrough) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  ASSERT_OK_AND_ASSIGN(Ph2 ph2, MakePh2(lb, lb.mutable_vocab(), Ph2Options{}));
  QueryTransformer transformer(lb.mutable_vocab(), ph2.ne);
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery(lb.mutable_vocab(), "(x) . exists y. P(x) & P(y)"));
  ASSERT_OK_AND_ASSIGN(TransformedQuery tq, transformer.Transform(q));
  EXPECT_TRUE(tq.alpha_preds.empty());
  EXPECT_TRUE(IsPositive(tq.query.body()));
}

TEST(TransformTest, FirstOrderQueriesStayFirstOrder) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("R", {"A", "B"}));
  ASSERT_OK_AND_ASSIGN(Ph2 ph2, MakePh2(lb, lb.mutable_vocab(), Ph2Options{}));
  QueryTransformer transformer(lb.mutable_vocab(), ph2.ne);
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb.mutable_vocab(),
                          "(x) . forall y. !R(x, y)"));
  TransformOptions syntactic;
  syntactic.alpha_mode = AlphaMode::kSyntactic;
  ASSERT_OK_AND_ASSIGN(TransformedQuery tq,
                       transformer.Transform(q, syntactic));
  EXPECT_TRUE(IsFirstOrder(tq.query.body()));  // Lemma 10 promise
  EXPECT_TRUE(tq.alpha_preds.empty());
}

TEST(TransformTest, RejectsQueriesMentioningNe) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  ASSERT_OK_AND_ASSIGN(Ph2 ph2, MakePh2(lb, lb.mutable_vocab(), Ph2Options{}));
  QueryTransformer transformer(lb.mutable_vocab(), ph2.ne);
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery(lb.mutable_vocab(), "(x, y) . NE(x, y)"));
  EXPECT_FALSE(transformer.Transform(q).ok());
}

TEST(TransformTest, VirtualModeRejectsNegatedSoVariables) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  ASSERT_OK_AND_ASSIGN(Ph2 ph2, MakePh2(lb, lb.mutable_vocab(), Ph2Options{}));
  QueryTransformer transformer(lb.mutable_vocab(), ph2.ne);
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb.mutable_vocab(),
                          "exists2 S/1. exists x. P(x) & !S(x)"));
  EXPECT_EQ(transformer.Transform(q).status().code(),
            StatusCode::kUnimplemented);
  TransformOptions syntactic;
  syntactic.alpha_mode = AlphaMode::kSyntactic;
  EXPECT_OK(transformer.Transform(q, syntactic).status());
}

/// Theorem 11 (soundness): A(Q, LB) ⊆ Q(LB) on random instances, in every
/// engine/mode combination.
TEST(Theorem11Test, ApproximationIsSound) {
  struct Config {
    AlphaMode alpha;
    ApproxEngine engine;
    bool materialize_ne;
  };
  const Config configs[] = {
      {AlphaMode::kVirtual, ApproxEngine::kEvaluator, false},
      {AlphaMode::kVirtual, ApproxEngine::kEvaluator, true},
      {AlphaMode::kSyntactic, ApproxEngine::kEvaluator, true},
      {AlphaMode::kVirtual, ApproxEngine::kRelationalAlgebra, false},
  };
  for (uint64_t seed = 0; seed < 16; ++seed) {
    for (const Config& config : configs) {
      RandomDbParams params;
      params.num_known = 3;
      params.num_unknown = 2;
      auto lb = RandomCwDatabase(seed, params);

      RandomFormulaParams fparams;
      fparams.free_vars = {"hx"};
      fparams.max_depth = 3;
      Query q = RandomQuery(seed * 31 + 7, lb->mutable_vocab(), fparams);

      ApproxOptions options;
      options.alpha_mode = config.alpha;
      options.engine = config.engine;
      options.materialize_ne = config.materialize_ne;
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                           ApproxEvaluator::Make(lb.get(), options));
      ASSERT_OK_AND_ASSIGN(Relation approx_answer, approx->Answer(q));

      ExactEvaluator exact(lb.get());
      ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(q));

      EXPECT_TRUE(approx_answer.IsSubsetOf(exact_answer))
          << "seed " << seed << " query " << PrintQuery(lb->vocab(), q);
    }
  }
}

/// Theorem 12 (completeness for fully specified databases).
TEST(Theorem12Test, FullySpecifiedIsExact) {
  for (uint64_t seed = 0; seed < 18; ++seed) {
    RandomDbParams params;
    params.num_known = 4;
    params.num_unknown = 0;
    auto lb = RandomCwDatabase(seed, params);
    ASSERT_TRUE(lb->IsFullySpecified());

    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    Query q = RandomQuery(seed * 11 + 3, lb->mutable_vocab(), fparams);

    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                         ApproxEvaluator::Make(lb.get(), ApproxOptions{}));
    ASSERT_OK_AND_ASSIGN(Relation approx_answer, approx->Answer(q));

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(q));

    EXPECT_EQ(approx_answer, exact_answer)
        << "seed " << seed << " query " << PrintQuery(lb->vocab(), q);
  }
}

/// Theorem 13 (completeness for positive queries), with unknowns present.
TEST(Theorem13Test, PositiveQueriesAreExact) {
  for (uint64_t seed = 0; seed < 18; ++seed) {
    RandomDbParams params;
    params.num_known = 3;
    params.num_unknown = 2;
    auto lb = RandomCwDatabase(seed, params);

    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    fparams.allow_negation = false;  // positive queries only
    Query q = RandomQuery(seed * 17 + 9, lb->mutable_vocab(), fparams);
    ASSERT_TRUE(IsPositive(q.body()));

    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                         ApproxEvaluator::Make(lb.get(), ApproxOptions{}));
    ASSERT_OK_AND_ASSIGN(Relation approx_answer, approx->Answer(q));

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(q));

    EXPECT_EQ(approx_answer, exact_answer)
        << "seed " << seed << " query " << PrintQuery(lb->vocab(), q);
  }
}

/// The two α implementations and both engines agree with each other on the
/// final answers (not just pointwise on α).
TEST(ApproxConsistencyTest, ModesAgree) {
  for (uint64_t seed = 40; seed < 48; ++seed) {
    RandomDbParams params;
    params.num_known = 3;
    params.num_unknown = 2;
    auto lb = RandomCwDatabase(seed, params);

    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    Query q = RandomQuery(seed + 1000, lb->mutable_vocab(), fparams);

    std::vector<Relation> answers;
    for (int mode = 0; mode < 3; ++mode) {
      ApproxOptions options;
      options.alpha_mode =
          mode == 1 ? AlphaMode::kSyntactic : AlphaMode::kVirtual;
      options.engine = mode == 2 ? ApproxEngine::kRelationalAlgebra
                                 : ApproxEngine::kEvaluator;
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                           ApproxEvaluator::Make(lb.get(), options));
      ASSERT_OK_AND_ASSIGN(Relation answer, approx->Answer(q));
      answers.push_back(std::move(answer));
    }
    EXPECT_EQ(answers[0], answers[1]) << "seed " << seed;
    EXPECT_EQ(answers[0], answers[2]) << "seed " << seed;
  }
}

/// Parsing a query interns its new constants into the vocabulary after
/// `Make`. Each call builds `Ph₂` from the database as it is at that call,
/// so both engines interpret the new constant (as an unknown value), agree,
/// and stay sound.
TEST(ApproxConsistencyTest, ConstantAddedAfterMakeIsInterpretedByBothEngines) {
  std::vector<std::vector<Relation>> answers;
  for (ApproxEngine engine :
       {ApproxEngine::kEvaluator, ApproxEngine::kRelationalAlgebra}) {
    CwDatabase lb;
    ASSERT_OK(lb.AddFact("P", {"A"}));
    ApproxOptions options;
    options.engine = engine;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                         ApproxEvaluator::Make(&lb, options));
    answers.emplace_back();
    for (const char* text : {"(x) . P(x) & !(x = Yy)", "(x) . P(x) | x = Zz"}) {
      ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb.mutable_vocab(), text));
      ASSERT_OK_AND_ASSIGN(Relation answer, approx->Answer(q));
      ExactEvaluator exact(&lb);
      ASSERT_OK_AND_ASSIGN(Relation truth, exact.Answer(q));
      EXPECT_TRUE(answer.IsSubsetOf(truth)) << text;
      answers.back().push_back(std::move(answer));
    }
    // Zz denotes itself in the answer, so Ph₂ interprets it.
    EXPECT_TRUE(answers.back()[1].Contains({lb.vocab().FindConstant("Zz")}));
  }
  EXPECT_EQ(answers[0], answers[1]);
}

/// The paper's flagship soundness example: negative information about
/// unknown values is only claimed when provable.
TEST(ApproxStoryTest, JackTheRipper) {
  // Jack's identity must be declared unknown *before* facts mention him
  // (facts intern their constants as known).
  CwDatabase lb2;
  ConstId jack = lb2.AddUnknownConstant("JackTheRipper");
  ConstId disraeli = lb2.AddKnownConstant("Disraeli");
  ConstId victoria = lb2.AddKnownConstant("Victoria");
  PredId murderer = lb2.AddPredicate("MURDERER", 1).value();
  ASSERT_OK(lb2.AddFact(murderer, {jack}));
  // We do know the Queen is not the Ripper.
  ASSERT_OK(lb2.AddDistinct(jack, victoria));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                       ApproxEvaluator::Make(&lb2, ApproxOptions{}));
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery(lb2.mutable_vocab(), "(x) . !MURDERER(x)"));
  ASSERT_OK_AND_ASSIGN(Relation answer, approx->Answer(q));
  // Victoria is provably innocent; Disraeli might be Jack.
  EXPECT_TRUE(answer.Contains({victoria}));
  EXPECT_FALSE(answer.Contains({disraeli}));
  EXPECT_FALSE(answer.Contains({jack}));

  // And the approximation matches the exact semantics here.
  ExactEvaluator exact(&lb2);
  ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(q));
  EXPECT_EQ(answer, exact_answer);
}

TEST(ApproxSecondOrderTest, SyntacticModeHandlesSoQueries) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  lb.AddKnownConstant("B");
  ApproxOptions options;
  options.alpha_mode = AlphaMode::kSyntactic;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                       ApproxEvaluator::Make(&lb, options));
  // ∃S ∀x (S(x) ↔ P(x)) — certainly true, and positive pieces only after
  // NNF turn into a mix including ¬S and ¬P.
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb.mutable_vocab(),
                          "exists2 S/1. forall x. S(x) <-> P(x)"));
  ASSERT_OK_AND_ASSIGN(Relation answer, approx->Answer(q));
  EXPECT_TRUE(BooleanAnswer(answer));

  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(bool exact_in, exact.Contains(q, {}));
  EXPECT_TRUE(exact_in);
}

}  // namespace
}  // namespace lqdb
