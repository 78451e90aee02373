#include <gtest/gtest.h>

#include "lqdb/cwdb/ph.h"
#include "lqdb/eval/answer.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/brute.h"
#include "lqdb/exact/exact.h"
#include "lqdb/exact/ra_exact.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "testing.h"

namespace lqdb {
namespace {

using testing::RandomCwDatabase;
using testing::RandomDbParams;
using testing::RandomFormulaParams;
using testing::RandomQuery;

/// §2.2's running example: TEACHES(Socrates, Plato) with an unknown
/// identity (a null) thrown in.
class ExactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(lb_.AddFact("TEACHES", {"Socrates", "Plato"}));
    unknown_ = lb_.AddUnknownConstant("Mystery");
  }

  Result<bool> Holds(const std::string& text) {
    auto q = ParseQuery(lb_.mutable_vocab(), text);
    if (!q.ok()) return q.status();
    ExactEvaluator exact(&lb_);
    return exact.Contains(q.value(), {});
  }

  CwDatabase lb_;
  ConstId unknown_;
};

TEST_F(ExactTest, PositiveFactsAreCertain) {
  ASSERT_OK_AND_ASSIGN(bool yes, Holds("TEACHES(Socrates, Plato)"));
  EXPECT_TRUE(yes);
  ASSERT_OK_AND_ASSIGN(bool no, Holds("TEACHES(Plato, Socrates)"));
  EXPECT_FALSE(no);
}

TEST_F(ExactTest, NegationOfKnownDistinctConstantsIsCertain) {
  ASSERT_OK_AND_ASSIGN(bool yes, Holds("Socrates != Plato"));
  EXPECT_TRUE(yes);
}

TEST_F(ExactTest, UnknownIdentityIsUncertainBothWays) {
  // Mystery may or may not be Socrates: neither the equality nor the
  // inequality is certain.
  ASSERT_OK_AND_ASSIGN(bool eq, Holds("Mystery = Socrates"));
  EXPECT_FALSE(eq);
  ASSERT_OK_AND_ASSIGN(bool neq, Holds("Mystery != Socrates"));
  EXPECT_FALSE(neq);
  // But Mystery is certainly *something* in the closed world.
  ASSERT_OK_AND_ASSIGN(
      bool closure,
      Holds("Mystery = Socrates | Mystery = Plato | Mystery = Mystery"));
  EXPECT_TRUE(closure);
}

TEST_F(ExactTest, NegatedAtomOverUnknownIsUncertain) {
  // TEACHES(Mystery, Plato) is not certain (Mystery might not be
  // Socrates), and ¬TEACHES(Mystery, Plato) is not certain either
  // (Mystery might be Socrates).
  ASSERT_OK_AND_ASSIGN(bool pos, Holds("TEACHES(Mystery, Plato)"));
  EXPECT_FALSE(pos);
  ASSERT_OK_AND_ASSIGN(bool neg, Holds("!TEACHES(Mystery, Plato)"));
  EXPECT_FALSE(neg);
}

TEST_F(ExactTest, ExplicitDistinctnessResolvesNegation) {
  ASSERT_OK(lb_.AddDistinct("Mystery", "Socrates"));
  ASSERT_OK_AND_ASSIGN(bool neg, Holds("!TEACHES(Mystery, Plato)"));
  EXPECT_TRUE(neg);
}

TEST_F(ExactTest, AnswerReturnsConstantTuples) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb_.mutable_vocab(), "(x) . TEACHES(Socrates, x)"));
  ExactEvaluator exact(&lb_);
  ASSERT_OK_AND_ASSIGN(Relation answer, exact.Answer(q));
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains({lb_.vocab().FindConstant("Plato")}));
}

TEST_F(ExactTest, CounterexampleIsAValidCertificate) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery(lb_.mutable_vocab(), "TEACHES(Mystery, Plato)"));
  ExactEvaluator exact(&lb_);
  std::optional<Counterexample> cex;
  ASSERT_OK_AND_ASSIGN(bool in, exact.Contains(q, {}, &cex));
  EXPECT_FALSE(in);
  ASSERT_TRUE(cex.has_value());
  // The certificate must respect the axioms and falsify the sentence.
  EXPECT_TRUE(RespectsUniqueness(lb_, cex->h));
  PhysicalDatabase image = ApplyMapping(lb_, cex->h);
  Evaluator eval(&image);
  ASSERT_OK_AND_ASSIGN(bool sat, eval.Satisfies(q.body()));
  EXPECT_FALSE(sat);
}

TEST_F(ExactTest, MappingBudgetIsEnforced) {
  for (int i = 0; i < 6; ++i) {
    lb_.AddUnknownConstant("u" + std::to_string(i));
  }
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb_.mutable_vocab(), "TEACHES(Socrates, Plato)"));
  ExactOptions options;
  options.max_mappings = 10;
  ExactEvaluator exact(&lb_, options);
  EXPECT_EQ(exact.Contains(q, {}).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(ExactTest, CandidateValidation) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb_.mutable_vocab(), "(x) . TEACHES(x, Plato)"));
  ExactEvaluator exact(&lb_);
  EXPECT_FALSE(exact.Contains(q, {}).ok());          // arity mismatch
  EXPECT_FALSE(exact.Contains(q, {9999}).ok());      // unknown constant
}

/// Corollary 2: for fully specified databases, Q(LB) = Q(Ph₁(LB)).
TEST(Corollary2Test, FullySpecifiedMatchesPh1) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    RandomDbParams params;
    params.num_known = 4;
    params.num_unknown = 0;  // fully specified
    auto lb = RandomCwDatabase(seed, params);
    ASSERT_TRUE(lb->IsFullySpecified());

    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    Query q = RandomQuery(seed * 7 + 1, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation logical, exact.Answer(q));

    PhysicalDatabase ph1 = MakePh1(*lb);
    Evaluator eval(&ph1);
    ASSERT_OK_AND_ASSIGN(Relation physical, eval.Answer(q));

    EXPECT_EQ(logical, physical)
        << "seed " << seed << " query " << PrintQuery(lb->vocab(), q);
  }
}

/// The canonical (partition-based) evaluator agrees with literally
/// quantifying over all |C|^|C| mappings.
TEST(ExactVsBruteTest, PartitionCanonicalizationIsSound) {
  for (uint64_t seed = 0; seed < 18; ++seed) {
    RandomDbParams params;
    params.num_known = 2;
    params.num_unknown = 2;
    params.num_facts = 4;
    auto lb = RandomCwDatabase(seed, params);

    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    Query q = RandomQuery(seed * 13 + 5, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation canonical, exact.Answer(q));

    BruteForceEvaluator brute(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation brute_answer, brute.Answer(q));

    EXPECT_EQ(canonical, brute_answer)
        << "seed " << seed << " query " << PrintQuery(lb->vocab(), q);
  }
}

/// Strongest cross-check: Theorem 1 evaluation agrees with deciding
/// T ⊨_f φ(c) straight from the definition by enumerating every finite
/// interpretation over subsets of C.
TEST(ExactVsModelEnumerationTest, AgreesOnTinyDatabases) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    RandomDbParams params;
    params.num_known = 2;
    params.num_unknown = 1;
    params.num_unary_preds = 1;
    params.num_binary_preds = 0;  // keep the model space tractable
    params.num_facts = 2;
    auto lb = RandomCwDatabase(seed, params);

    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 2;
    Query q = RandomQuery(seed * 3 + 2, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    for (ConstId c = 0; c < lb->num_constants(); ++c) {
      ASSERT_OK_AND_ASSIGN(bool via_thm1, exact.Contains(q, {c}));
      ASSERT_OK_AND_ASSIGN(bool via_models,
                           ModelEnumerationContains(lb.get(), q, {c}));
      EXPECT_EQ(via_thm1, via_models)
          << "seed " << seed << " c " << lb->vocab().ConstantName(c)
          << " query " << PrintQuery(lb->vocab(), q);
    }
  }
}

TEST(PossibleAnswerTest, CertainIsContainedInPossible) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RandomDbParams params;
    params.num_known = 3;
    params.num_unknown = 2;
    auto lb = RandomCwDatabase(seed, params);
    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    Query q = RandomQuery(seed * 19 + 11, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation certain, exact.Answer(q));
    ASSERT_OK_AND_ASSIGN(Relation possible, exact.PossibleAnswer(q));
    EXPECT_TRUE(certain.IsSubsetOf(possible))
        << "seed " << seed << " query " << PrintQuery(lb->vocab(), q);
  }
}

TEST(PossibleAnswerTest, SuspectsStory) {
  CwDatabase lb;
  ConstId jack = lb.AddUnknownConstant("Jack");
  ConstId disraeli = lb.AddKnownConstant("Disraeli");
  ConstId victoria = lb.AddKnownConstant("Victoria");
  PredId murderer = lb.AddPredicate("MURDERER", 1).value();
  ASSERT_OK(lb.AddFact(murderer, {jack}));
  ASSERT_OK(lb.AddDistinct(jack, victoria));

  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb.mutable_vocab(),
                                           "(x) . MURDERER(x)"));
  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(Relation certain, exact.Answer(q));
  ASSERT_OK_AND_ASSIGN(Relation possible, exact.PossibleAnswer(q));

  // Certainly the murderer: only Jack. Possibly: Jack or Disraeli — but
  // never the Queen.
  EXPECT_EQ(certain.size(), 1u);
  EXPECT_TRUE(certain.Contains({jack}));
  EXPECT_EQ(possible.size(), 2u);
  EXPECT_TRUE(possible.Contains({jack}));
  EXPECT_TRUE(possible.Contains({disraeli}));
  EXPECT_FALSE(possible.Contains({victoria}));
}

TEST(PossibleAnswerTest, WitnessIsAValidModel) {
  CwDatabase lb;
  ConstId jack = lb.AddUnknownConstant("Jack");
  ConstId bob = lb.AddKnownConstant("Bob");
  PredId m = lb.AddPredicate("M", 1).value();
  ASSERT_OK(lb.AddFact(m, {jack}));

  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb.mutable_vocab(), "M(Bob)"));
  ExactEvaluator exact(&lb);
  std::optional<Counterexample> witness;
  ASSERT_OK_AND_ASSIGN(bool possible, exact.IsPossible(q, {}, &witness));
  EXPECT_TRUE(possible);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(RespectsUniqueness(lb, witness->h));
  EXPECT_EQ(witness->h[bob], witness->h[jack]);  // the merge that did it
  PhysicalDatabase image = ApplyMapping(lb, witness->h);
  Evaluator eval(&image);
  ASSERT_OK_AND_ASSIGN(bool sat, eval.Satisfies(q.body()));
  EXPECT_TRUE(sat);
}

TEST(PossibleAnswerTest, ContradictionsAreImpossible) {
  CwDatabase lb;
  lb.AddKnownConstant("A");
  lb.AddUnknownConstant("U");
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb.mutable_vocab(),
                                           "exists x. x != x"));
  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(bool possible, exact.IsPossible(q, {}));
  EXPECT_FALSE(possible);
}

TEST(PossibleAnswerTest, FullySpecifiedCollapsesPossibleToCertain) {
  for (uint64_t seed = 30; seed < 36; ++seed) {
    RandomDbParams params;
    params.num_known = 4;
    params.num_unknown = 0;
    auto lb = RandomCwDatabase(seed, params);
    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    Query q = RandomQuery(seed, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation certain, exact.Answer(q));
    ASSERT_OK_AND_ASSIGN(Relation possible, exact.PossibleAnswer(q));
    EXPECT_EQ(certain, possible) << "seed " << seed;
  }
}

TEST(ExactSecondOrderTest, EvaluatesSoQueries) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  lb.AddKnownConstant("B");
  // ∃S with S = P pointwise: certainly true.
  ASSERT_OK_AND_ASSIGN(
      Query q1,
      ParseQuery(lb.mutable_vocab(),
                 "exists2 S/1. forall x. S(x) <-> P(x)"));
  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(bool yes, exact.Contains(q1, {}));
  EXPECT_TRUE(yes);
  // ∀S: S contains A — certainly false.
  ASSERT_OK_AND_ASSIGN(
      Query q2, ParseQuery(lb.mutable_vocab(), "forall2 S/1. S(A)"));
  ASSERT_OK_AND_ASSIGN(bool no, exact.Contains(q2, {}));
  EXPECT_FALSE(no);
}

TEST(ExactEdgeCaseTest, EmptyDatabaseIsRejected) {
  CwDatabase lb;
  Vocabulary* vocab = lb.mutable_vocab();
  auto q = ParseQuery(vocab, "true");
  ASSERT_TRUE(q.ok());
  ExactEvaluator exact(&lb);
  EXPECT_EQ(exact.Contains(q.value(), {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExactEdgeCaseTest, TautologyAndContradiction) {
  CwDatabase lb;
  lb.AddUnknownConstant("U");
  lb.AddKnownConstant("A");
  Vocabulary* vocab = lb.mutable_vocab();
  ExactEvaluator exact(&lb);

  ASSERT_OK_AND_ASSIGN(Query taut, ParseQuery(vocab, "forall x. x = x"));
  ASSERT_OK_AND_ASSIGN(bool yes, exact.Contains(taut, {}));
  EXPECT_TRUE(yes);

  ASSERT_OK_AND_ASSIGN(Query contra, ParseQuery(vocab, "exists x. x != x"));
  ASSERT_OK_AND_ASSIGN(bool no, exact.Contains(contra, {}));
  EXPECT_FALSE(no);
}

TEST(ExactEdgeCaseTest, QueryMayIntroduceFreshConstants) {
  // A constant first mentioned by a query extends C with unknown identity:
  // the exact evaluator treats it like any other null.
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  ExactEvaluator exact(&lb);
  Vocabulary* vocab = lb.mutable_vocab();

  ASSERT_OK_AND_ASSIGN(Query q1, ParseQuery(vocab, "Zeus = Zeus"));
  ASSERT_OK_AND_ASSIGN(bool trivially, exact.Contains(q1, {}));
  EXPECT_TRUE(trivially);

  // Zeus might be A, so neither P(Zeus) nor !P(Zeus) is certain.
  ASSERT_OK_AND_ASSIGN(Query q2, ParseQuery(vocab, "P(Zeus)"));
  ASSERT_OK_AND_ASSIGN(bool pos, exact.Contains(q2, {}));
  EXPECT_FALSE(pos);
  ASSERT_OK_AND_ASSIGN(Query q3, ParseQuery(vocab, "!P(Zeus)"));
  ASSERT_OK_AND_ASSIGN(bool neg, exact.Contains(q3, {}));
  EXPECT_FALSE(neg);
}

TEST(ExactEdgeCaseTest, DomainClosureIsCertain) {
  // The hidden domain-closure axiom: everything equals some constant.
  CwDatabase lb;
  lb.AddKnownConstant("A");
  lb.AddUnknownConstant("U");
  Vocabulary* vocab = lb.mutable_vocab();
  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery(vocab, "forall x. x = A | x = U"));
  ASSERT_OK_AND_ASSIGN(bool yes, exact.Contains(q, {}));
  EXPECT_TRUE(yes);
}

TEST(CandidateSpaceTest, ZeroConstantsYieldEmptySpaceForPositiveArity) {
  // Regression: the odometer used to emit rows over an empty constant set,
  // and the per-mapping sweep then indexed past the end of `h`.
  EXPECT_TRUE(AllCandidateTuples(1, 0).empty());
  EXPECT_TRUE(AllCandidateTuples(3, 0).empty());
  // Boolean queries keep their single empty-tuple candidate.
  EXPECT_EQ(AllCandidateTuples(0, 0), std::vector<Tuple>{Tuple{}});
  EXPECT_EQ(AllCandidateTuples(0, 4), std::vector<Tuple>{Tuple{}});
  // The nonempty odometer is unchanged.
  EXPECT_EQ(AllCandidateTuples(2, 3).size(), 9u);
}

TEST(CandidateSpaceTest, ConstantFreeDatabaseFailsCleanlyOnAllEngines) {
  // A schema with no constants cannot model anything (domains are
  // nonempty); every Theorem 1 engine must surface that as a clean
  // FailedPrecondition from Answer, PossibleAnswer and Contains instead of
  // reading out of bounds.
  CwDatabase lb;
  ASSERT_OK(lb.AddPredicate("P", 1).status());
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(vocab, "(x) . P(x)"));
  ASSERT_OK_AND_ASSIGN(Query boolean, ParseQuery(vocab, "true"));

  ExactEvaluator exact(&lb);
  EXPECT_EQ(exact.Answer(q).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(exact.PossibleAnswer(q).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(exact.Contains(boolean, {}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(exact.IsPossible(boolean, {}).status().code(),
            StatusCode::kFailedPrecondition);

  BruteForceEvaluator brute(&lb);
  EXPECT_EQ(brute.Answer(q).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(brute.Contains(boolean, {}).status().code(),
            StatusCode::kFailedPrecondition);

  ExactOptions options;
  options.threads = 2;
  ExactEvaluator parallel(&lb, options);
  EXPECT_EQ(parallel.Answer(q).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(parallel.PossibleAnswer(q).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(parallel.Contains(boolean, {}).status().code(),
            StatusCode::kFailedPrecondition);

  // The compiled engine checks the precondition before compiling: the plan's
  // cardinality stats and the enumeration both assume a nonempty `C`.
  RaExactEvaluator ra(&lb);
  EXPECT_EQ(ra.Answer(q).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ra.PossibleAnswer(q).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ra.Contains(boolean, {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SaturatingPowerTest, ComputesExactIntegerPowers) {
  EXPECT_EQ(SaturatingPower(0, 0), 1u);   // the one empty mapping
  EXPECT_EQ(SaturatingPower(0, 3), 0u);
  EXPECT_EQ(SaturatingPower(7, 0), 1u);
  EXPECT_EQ(SaturatingPower(3, 4), 81u);
  // 15^15 is not representable in a double's 53-bit mantissa — the exact
  // integer is what the brute-force budget gate must compare against.
  EXPECT_EQ(SaturatingPower(15, 15), 437893890380859375ull);
  EXPECT_EQ(SaturatingPower(2, 63), 1ull << 63);
}

TEST(SaturatingPowerTest, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(SaturatingPower(2, 64), UINT64_MAX);
  EXPECT_EQ(SaturatingPower(1000000, 20), UINT64_MAX);
  EXPECT_EQ(SaturatingPower(UINT64_MAX, 2), UINT64_MAX);
}

TEST(SaturatingPowerTest, BruteBudgetGateIsExactAtTheThreshold) {
  // 3 constants → exactly 27 mappings. A budget of 27 must pass and 26
  // must trip, for Contains and Answer alike — the gate the double-based
  // std::pow check got wrong near the threshold.
  CwDatabase lb;
  for (int i = 0; i < 3; ++i) {
    lb.AddUnknownConstant("U" + std::to_string(i));
  }
  PredId p = lb.AddPredicate("P", 1).value();
  ASSERT_OK(lb.AddFact(p, {0}));
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(vocab, "(x) . P(x)"));

  ExactOptions exact_budget;
  exact_budget.max_mappings = 27;
  BruteForceEvaluator roomy(&lb, exact_budget);
  EXPECT_OK(roomy.Answer(q).status());
  EXPECT_OK(roomy.Contains(q, {0}).status());

  ExactOptions tight_budget;
  tight_budget.max_mappings = 26;
  BruteForceEvaluator tight(&lb, tight_budget);
  EXPECT_EQ(tight.Answer(q).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(tight.Contains(q, {0}).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace lqdb
