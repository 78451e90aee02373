#include <gtest/gtest.h>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/cwdb/simulation.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/classify.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "lqdb/util/rng.h"
#include "testing.h"

namespace lqdb {
namespace {

/// Evaluates Q'(Ph₂(LB)) with the second-order evaluator and restricts the
/// answer to constant tuples (Ph₂'s domain is C, so no restriction is
/// actually needed — the call documents intent).
Relation EvalSimulation(CwDatabase* lb, PredId ne,
                        const PhysicalDatabase& ph2_db, const Query& q) {
  auto sim = BuildPreciseSimulation(lb, ne, q);
  EXPECT_TRUE(sim.ok()) << sim.status();
  EvalOptions opts;
  opts.max_so_tuple_space = 16;  // |C|² for |C| ≤ 4
  Evaluator eval(&ph2_db, opts);
  auto answer = eval.Answer(sim->query);
  EXPECT_TRUE(answer.ok()) << answer.status();
  return answer.value_or(Relation(static_cast<int>(q.arity())));
}

class SimulationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mystery_ = lb_.AddUnknownConstant("Mystery");
    ASSERT_OK(lb_.AddFact("T", {"Soc", "Pla"}));
    auto ph2 = MakePh2(lb_, lb_.mutable_vocab(), Ph2Options{});
    ASSERT_OK(ph2.status());
    ne_ = ph2->ne;
    ph2_db_ = std::make_unique<PhysicalDatabase>(std::move(ph2->db));
  }

  void ExpectSimulationMatchesExact(const std::string& text) {
    auto q = ParseQuery(lb_.mutable_vocab(), text);
    ASSERT_TRUE(q.ok()) << q.status();
    ExactEvaluator exact(&lb_);
    auto expected = exact.Answer(q.value());
    ASSERT_TRUE(expected.ok()) << expected.status();
    Relation got = EvalSimulation(&lb_, ne_, *ph2_db_, q.value());
    EXPECT_EQ(got, expected.value()) << text;
  }

  CwDatabase lb_;
  ConstId mystery_;
  PredId ne_ = 0;
  std::unique_ptr<PhysicalDatabase> ph2_db_;
};

TEST_F(SimulationTest, PositiveAtom) {
  ExpectSimulationMatchesExact("(x) . T(Soc, x)");
}

TEST_F(SimulationTest, NegatedAtom) {
  ExpectSimulationMatchesExact("(x) . !T(x, Pla)");
}

TEST_F(SimulationTest, EqualityAndInequality) {
  ExpectSimulationMatchesExact("(x) . x = Mystery");
  ExpectSimulationMatchesExact("(x) . x != Mystery");
}

TEST_F(SimulationTest, BooleanSentences) {
  ExpectSimulationMatchesExact("exists x. T(x, Pla)");
  ExpectSimulationMatchesExact("T(Mystery, Pla)");
  ExpectSimulationMatchesExact("!T(Mystery, Pla)");
  ExpectSimulationMatchesExact("Mystery != Soc");
}

TEST_F(SimulationTest, QuantifiedBodies) {
  ExpectSimulationMatchesExact("(x) . forall y. T(x, y) -> x = Soc");
  ExpectSimulationMatchesExact("(x) . exists y. T(x, y) | T(y, x)");
}

TEST_F(SimulationTest, ResultIsSecondOrder) {
  auto q = ParseQuery(lb_.mutable_vocab(), "(x) . T(Soc, x)");
  auto sim = BuildPreciseSimulation(&lb_, ne_, q.value());
  ASSERT_TRUE(sim.ok()) << sim.status();
  // Q' is second-order even though Q is first-order — the paper's point
  // about the hidden second-order quantification.
  EXPECT_FALSE(IsFirstOrder(sim->query.body()));
  PrefixShape shape = ClassifySoPrefix(sim->query.body());
  EXPECT_TRUE(shape.prenex);
  EXPECT_FALSE(shape.starts_existential);  // a ∀-prefix (Π¹₁ shape)
}

TEST_F(SimulationTest, RejectsQueriesOverLPrime) {
  auto q = ParseQuery(lb_.mutable_vocab(), "(x, y) . NE(x, y)");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(BuildPreciseSimulation(&lb_, ne_, q.value()).ok());
}

/// Theorem 3 property test: Q(LB) = Q'(Ph₂(LB)) on tiny random databases.
TEST(SimulationPropertyTest, MatchesExactOnRandomTinyDatabases) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    testing::RandomDbParams params;
    params.num_known = 2;
    params.num_unknown = 1;
    params.num_unary_preds = 1;
    params.num_binary_preds = 0;  // keep the ∀P' spaces tiny
    params.num_facts = 3;
    auto lb = testing::RandomCwDatabase(seed, params);
    auto ph2 = MakePh2(*lb, lb->mutable_vocab(), Ph2Options{});
    ASSERT_OK(ph2.status());

    testing::RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 2;
    Query q = testing::RandomQuery(seed * 5 + 3, lb->mutable_vocab(),
                                   fparams);

    ExactEvaluator exact(lb.get());
    auto expected = exact.Answer(q);
    ASSERT_OK(expected.status());

    Relation got = EvalSimulation(lb.get(), ph2->ne, ph2->db, q);
    EXPECT_EQ(got, expected.value())
        << "seed " << seed << " query " << PrintQuery(lb->vocab(), q);
  }
}

/// On a fully specified database the simulation, the exact answer and the
/// plain physical answer over Ph₁ all coincide (Theorem 3 + Corollary 2).
TEST(SimulationPropertyTest, FullySpecifiedCollapsesToPh1) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  lb.AddKnownConstant("B");
  auto ph2 = MakePh2(lb, lb.mutable_vocab(), Ph2Options{});
  ASSERT_OK(ph2.status());

  auto q = ParseQuery(lb.mutable_vocab(), "(x) . !P(x)");
  ASSERT_TRUE(q.ok());

  PhysicalDatabase ph1 = MakePh1(lb);
  Evaluator eval(&ph1);
  auto physical = eval.Answer(q.value());
  ASSERT_OK(physical.status());

  Relation sim = EvalSimulation(&lb, ph2->ne, ph2->db, q.value());
  EXPECT_EQ(sim, physical.value());
}

}  // namespace
}  // namespace lqdb
