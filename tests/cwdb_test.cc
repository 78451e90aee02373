#include <gtest/gtest.h>

#include "lqdb/approx/alpha.h"
#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/cwdb/theory.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/logic/printer.h"
#include "testing.h"

namespace lqdb {
namespace {

using testing::RandomCwDatabase;
using testing::RandomDbParams;

TEST(CwDatabaseTest, KnownConstantsArePairwiseDistinct) {
  CwDatabase lb;
  ConstId a = lb.AddKnownConstant("Socrates");
  ConstId b = lb.AddKnownConstant("Plato");
  ConstId u = lb.AddUnknownConstant("JackTheRipper");
  EXPECT_TRUE(lb.AreDistinct(a, b));
  EXPECT_FALSE(lb.AreDistinct(a, u));
  EXPECT_FALSE(lb.AreDistinct(u, u));
  EXPECT_FALSE(lb.AreDistinct(a, a));
}

TEST(CwDatabaseTest, ExplicitDistinctPairs) {
  CwDatabase lb;
  ConstId a = lb.AddKnownConstant("A");
  ConstId u = lb.AddUnknownConstant("U");
  ASSERT_OK(lb.AddDistinct(u, a));
  EXPECT_TRUE(lb.AreDistinct(a, u));
  EXPECT_TRUE(lb.AreDistinct(u, a));
  EXPECT_FALSE(lb.AddDistinct(a, a).ok());  // inconsistent axiom
  EXPECT_FALSE(lb.AddDistinct("A", "Ghost").ok());
}

TEST(CwDatabaseTest, UnknownUpgradesToKnown) {
  CwDatabase lb;
  ConstId u = lb.AddUnknownConstant("X");
  EXPECT_FALSE(lb.IsKnown(u));
  ConstId same = lb.AddKnownConstant("X");
  EXPECT_EQ(same, u);
  EXPECT_TRUE(lb.IsKnown(u));
  // Adding as unknown again never downgrades.
  lb.AddUnknownConstant("X");
  EXPECT_TRUE(lb.IsKnown(u));
}

TEST(CwDatabaseTest, FullySpecified) {
  CwDatabase lb;
  lb.AddKnownConstant("A");
  lb.AddKnownConstant("B");
  EXPECT_TRUE(lb.IsFullySpecified());
  ConstId u = lb.AddUnknownConstant("U");
  EXPECT_FALSE(lb.IsFullySpecified());
  // Explicit axioms against every other constant restore full
  // specification.
  ASSERT_OK(lb.AddDistinct(u, 0));
  ASSERT_OK(lb.AddDistinct(u, 1));
  EXPECT_TRUE(lb.IsFullySpecified());
}

TEST(CwDatabaseTest, DistinctPairCountMatchesMaterialization) {
  auto lb = RandomCwDatabase(3, RandomDbParams{});
  EXPECT_EQ(lb->CountDistinctPairs(), lb->AllDistinctPairs().size());
}

TEST(CwDatabaseTest, FactsValidateArityAndConstants) {
  CwDatabase lb;
  ConstId a = lb.AddKnownConstant("A");
  PredId p = lb.AddPredicate("P", 2).value();
  EXPECT_FALSE(lb.AddFact(p, {a}).ok());
  EXPECT_FALSE(lb.AddFact(p, {a, 99}).ok());
  ASSERT_OK(lb.AddFact(p, {a, a}));
  EXPECT_EQ(lb.NumFacts(), 1u);
  EXPECT_TRUE(lb.facts(p).Contains({a, a}));
}

TEST(CwDatabaseTest, AddFactByNamePreservesUnknownStatus) {
  CwDatabase lb;
  ConstId jack = lb.AddUnknownConstant("Jack");
  ASSERT_OK(lb.AddFact("SEEN", {"Jack", "London"}));
  EXPECT_FALSE(lb.IsKnown(jack));  // a fact must not forge uniqueness axioms
  EXPECT_TRUE(lb.IsKnown(lb.vocab().FindConstant("London")));
}

TEST(CwDatabaseTest, ParserInternedConstantsCountAsUnknown) {
  CwDatabase lb;
  ConstId a = lb.AddKnownConstant("A");
  // Constants that enter through the vocabulary directly (as the query
  // parser does) carry no uniqueness axioms.
  ConstId ghost = lb.mutable_vocab()->AddConstant("Ghost");
  EXPECT_FALSE(lb.IsKnown(ghost));
  EXPECT_FALSE(lb.AreDistinct(a, ghost));
  EXPECT_EQ(lb.UnknownConstants(), std::vector<ConstId>{ghost});
}

TEST(CwDatabaseTest, AddFactByNameInternsKnownConstants) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("TEACHES", {"Socrates", "Plato"}));
  ConstId s = lb.vocab().FindConstant("Socrates");
  ASSERT_NE(s, Vocabulary::kNotFound);
  EXPECT_TRUE(lb.IsKnown(s));
  EXPECT_EQ(lb.NumFacts(), 1u);
}

TEST(TheoryTest, EmitsAllFiveComponents) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("TEACHES", {"Socrates", "Plato"}));
  lb.AddPredicate("EMPTY", 1).value();
  Theory theory = TheoryOf(&lb);

  EXPECT_EQ(theory.atomic_facts.size(), 1u);
  EXPECT_EQ(theory.uniqueness.size(), 1u);  // ¬(Socrates = Plato)
  ASSERT_NE(theory.domain_closure, nullptr);
  EXPECT_EQ(theory.completion.size(), 2u);

  std::string text = PrintTheory(lb.vocab(), theory);
  EXPECT_NE(text.find("TEACHES(Socrates, Plato)"), std::string::npos);
  EXPECT_NE(text.find("Socrates != Plato"), std::string::npos);
  EXPECT_NE(text.find("forall x. x = Socrates | x = Plato"),
            std::string::npos);
  // Completion of a factless predicate is ∀x ¬P(x).
  EXPECT_NE(text.find("forall x1. !EMPTY(x1)"), std::string::npos);
}

TEST(TheoryTest, Ph1IsAModelOfTheTheory) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  ASSERT_OK(lb.AddFact("R", {"A", "B"}));
  Theory theory = TheoryOf(&lb);
  PhysicalDatabase ph1 = MakePh1(lb);
  Evaluator eval(&ph1);
  for (const FormulaPtr& s : theory.AllSentences()) {
    ASSERT_OK_AND_ASSIGN(bool sat, eval.Satisfies(s));
    EXPECT_TRUE(sat) << PrintFormula(lb.vocab(), s);
  }
}

TEST(PhTest, Ph1HasIdentityInterpretation) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  lb.AddUnknownConstant("U");
  PhysicalDatabase ph1 = MakePh1(lb);
  EXPECT_EQ(ph1.domain_size(), lb.num_constants());
  for (ConstId c = 0; c < lb.num_constants(); ++c) {
    EXPECT_EQ(ph1.ConstantValue(c), c);
  }
  PredId p = lb.vocab().FindPredicate("P");
  EXPECT_TRUE(ph1.relation(p).Contains({lb.vocab().FindConstant("A")}));
}

TEST(PhTest, Ph2MaterializesNeInBothOrientations) {
  CwDatabase lb;
  lb.AddKnownConstant("A");
  lb.AddKnownConstant("B");
  lb.AddUnknownConstant("U");
  ASSERT_OK_AND_ASSIGN(Ph2 ph2, MakePh2(lb, lb.mutable_vocab(), Ph2Options{}));
  const Relation& ne = ph2.db.relation(ph2.ne);
  EXPECT_EQ(ne.size(), 2u);  // (A,B) and (B,A)
  EXPECT_TRUE(ne.Contains({0, 1}));
  EXPECT_TRUE(ne.Contains({1, 0}));
  EXPECT_TRUE(lb.vocab().IsAuxiliary(ph2.ne));
}

// The approximation answers `NE` from the stored axioms (the §5 closing
// remark's virtual relation) exactly as the materialized `Ph₂` stores it.
TEST(PhTest, ApproxProviderNeMatchesMaterialized) {
  auto lb = RandomCwDatabase(11, RandomDbParams{});
  Ph2Options opts;
  opts.materialize_ne = true;
  ASSERT_OK_AND_ASSIGN(Ph2 ph2, MakePh2(*lb, lb->mutable_vocab(), opts));
  ApproxProvider provider(lb.get(), ph2.ne);
  const ConstId n = static_cast<ConstId>(lb->num_constants());
  for (ConstId a = 0; a < n; ++a) {
    for (ConstId b = 0; b < n; ++b) {
      EXPECT_EQ(provider.Contains(ph2.ne, {a, b}),
                ph2.db.relation(ph2.ne).Contains({a, b}))
          << a << "," << b;
    }
  }
}

TEST(MappingTest, IdentityRespectsAndPreservesPh1) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("R", {"A", "B"}));
  ConstMapping id = IdentityMapping(lb.num_constants());
  EXPECT_TRUE(RespectsUniqueness(lb, id));
  PhysicalDatabase image = ApplyMapping(lb, id);
  PhysicalDatabase ph1 = MakePh1(lb);
  EXPECT_EQ(image.domain_size(), ph1.domain_size());
  PredId r = lb.vocab().FindPredicate("R");
  EXPECT_EQ(image.relation(r), ph1.relation(r));
}

TEST(MappingTest, MergingDistinctConstantsIsRejected) {
  CwDatabase lb;
  lb.AddKnownConstant("A");
  lb.AddKnownConstant("B");
  ConstMapping merge{0, 0};
  EXPECT_FALSE(RespectsUniqueness(lb, merge));
}

TEST(MappingTest, ApplyMappingMergesTuples) {
  CwDatabase lb;
  ConstId a = lb.AddUnknownConstant("X");
  ConstId b = lb.AddUnknownConstant("Y");
  PredId p = lb.AddPredicate("P", 1).value();
  ASSERT_OK(lb.AddFact(p, {a}));
  ASSERT_OK(lb.AddFact(p, {b}));
  ConstMapping merge{0, 0};
  PhysicalDatabase image = ApplyMapping(lb, merge);
  EXPECT_EQ(image.domain_size(), 1u);
  EXPECT_EQ(image.relation(p).size(), 1u);
}

TEST(MappingTest, CanonicalCountIsBellNumberWithoutAxioms) {
  // Bell numbers B(1..5) = 1, 2, 5, 15, 52.
  const uint64_t bell[] = {1, 2, 5, 15, 52};
  for (int n = 1; n <= 5; ++n) {
    CwDatabase lb;
    for (int i = 0; i < n; ++i) {
      lb.AddUnknownConstant("u" + std::to_string(i));
    }
    EXPECT_EQ(CountCanonicalMappings(lb), bell[n - 1]) << "n = " << n;
  }
}

TEST(MappingTest, FullySpecifiedHasOneCanonicalMapping) {
  CwDatabase lb;
  for (int i = 0; i < 5; ++i) lb.AddKnownConstant("k" + std::to_string(i));
  EXPECT_EQ(CountCanonicalMappings(lb), 1u);
}

TEST(MappingTest, MixedCountsMatchBruteForcePartitioning) {
  // 2 known + 2 unconstrained unknowns: partitions of a 4-set avoiding the
  // merge of the two known constants. B(4)=15 minus partitions merging k0,
  // k1: merging them collapses to partitions of a 3-set, B(3)=5 → 10.
  CwDatabase lb;
  lb.AddKnownConstant("k0");
  lb.AddKnownConstant("k1");
  lb.AddUnknownConstant("u0");
  lb.AddUnknownConstant("u1");
  EXPECT_EQ(CountCanonicalMappings(lb), 10u);
}

TEST(MappingTest, EveryCanonicalMappingRespects) {
  auto lb = RandomCwDatabase(17, RandomDbParams{});
  uint64_t count = ForEachCanonicalMapping(*lb, [&](const ConstMapping& h) {
    EXPECT_TRUE(RespectsUniqueness(*lb, h));
    return true;
  });
  EXPECT_GT(count, 0u);
}

TEST(MappingTest, EarlyStopIsHonored) {
  CwDatabase lb;
  for (int i = 0; i < 4; ++i) {
    lb.AddUnknownConstant("u" + std::to_string(i));
  }
  int seen = 0;
  ForEachCanonicalMapping(lb, [&](const ConstMapping&) {
    return ++seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST(MappingTest, BruteForceVisitsAllRespectingFunctions) {
  // 3 constants, no axioms: all 27 functions respect.
  CwDatabase lb;
  for (int i = 0; i < 3; ++i) {
    lb.AddUnknownConstant("u" + std::to_string(i));
  }
  uint64_t count = ForEachMapping(lb, [](const ConstMapping&) {
    return true;
  });
  EXPECT_EQ(count, 27u);

  // With one NE pair, functions merging that pair drop out: h(0) == h(1)
  // has 3 * 3 = 9 cases.
  ASSERT_OK(lb.AddDistinct(0, 1));
  count = ForEachMapping(lb, [](const ConstMapping&) { return true; });
  EXPECT_EQ(count, 18u);
}

/// Every canonical image database is a model of the full §2.2 theory —
/// empirical footing for the "Ph₁(LB) satisfies T" step of Theorem 1.
TEST(MappingTest, EveryCanonicalImageModelsTheTheory) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RandomDbParams params;
    params.num_known = 3;
    params.num_unknown = 2;
    auto lb = RandomCwDatabase(seed, params);
    Theory theory = TheoryOf(lb.get());
    std::vector<FormulaPtr> sentences = theory.AllSentences();
    ForEachCanonicalMapping(*lb, [&](const ConstMapping& h) {
      PhysicalDatabase image = ApplyMapping(*lb, h);
      Evaluator eval(&image);
      for (const FormulaPtr& s : sentences) {
        auto sat = eval.Satisfies(s);
        EXPECT_TRUE(sat.ok() && sat.value())
            << "seed " << seed << " sentence "
            << PrintFormula(lb->vocab(), s);
      }
      return true;
    });
  }
}

}  // namespace
}  // namespace lqdb
