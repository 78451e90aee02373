#include <gtest/gtest.h>

#include "lqdb/approx/approx.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/cwdb/theory.h"
#include "lqdb/eval/answer.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/executor.h"
#include "testing.h"

namespace lqdb {
namespace {

/// The §2.1 motivating schema: EMP_DEPT(employee, dept) and
/// DEPT_MGR(dept, manager), with an unknown department for one employee.
class CompanyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Known world.
    ASSERT_OK(lb_.AddFact("EMP_DEPT", {"Ann", "Toys"}));
    ASSERT_OK(lb_.AddFact("EMP_DEPT", {"Bob", "Books"}));
    ASSERT_OK(lb_.AddFact("DEPT_MGR", {"Toys", "Carol"}));
    ASSERT_OK(lb_.AddFact("DEPT_MGR", {"Books", "Dan"}));
    // Eve works in some department we have not identified.
    mystery_dept_ = lb_.AddUnknownConstant("EvesDept");
    PredId emp_dept = lb_.vocab().FindPredicate("EMP_DEPT");
    ConstId eve = lb_.AddKnownConstant("Eve");
    ASSERT_OK(lb_.AddFact(emp_dept, {eve, mystery_dept_}));
  }

  CwDatabase lb_;
  ConstId mystery_dept_;
};

TEST_F(CompanyTest, ManagerQueryFromThePaper) {
  // (x1, x2) . ∃y (EMP_DEPT(x1, y) ∧ DEPT_MGR(y, x2)) — §2.1's example.
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery(lb_.mutable_vocab(),
                 "(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)"));

  ExactEvaluator exact(&lb_);
  ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(q));

  const Vocabulary& v = lb_.vocab();
  Tuple ann_carol{v.FindConstant("Ann"), v.FindConstant("Carol")};
  Tuple bob_dan{v.FindConstant("Bob"), v.FindConstant("Dan")};
  EXPECT_TRUE(exact_answer.Contains(ann_carol));
  EXPECT_TRUE(exact_answer.Contains(bob_dan));
  // Eve's manager is unknown — EvesDept might be Toys, Books, or neither,
  // so no (Eve, m) pair is certain.
  for (const Tuple& t : exact_answer.SortedTuples()) {
    EXPECT_NE(t[0], v.FindConstant("Eve"));
  }

  // The positive query is answered completely by the approximation
  // (Theorem 13), so the cheap algorithm returns the same relation.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                       ApproxEvaluator::Make(&lb_, ApproxOptions{}));
  ASSERT_OK_AND_ASSIGN(Relation approx_answer, approx->Answer(q));
  EXPECT_EQ(approx_answer, exact_answer);
}

TEST_F(CompanyTest, WhoIsCertainlyNotManagedByCarol) {
  // Non-positive query: employees provably not managed by Carol.
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery(lb_.mutable_vocab(),
                 "(x) . exists d. EMP_DEPT(x, d) & "
                 "!(exists y. EMP_DEPT(x, y) & DEPT_MGR(y, Carol))"));
  const Vocabulary& v = lb_.vocab();

  ExactEvaluator exact(&lb_);
  ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(q));
  // Bob is certainly in Books, managed by Dan. Eve's dept is unknown, so
  // she is not certainly outside Carol's department... but the exact
  // semantics *can* rule employees in only when every completion agrees.
  EXPECT_TRUE(exact_answer.Contains({v.FindConstant("Bob")}));
  EXPECT_FALSE(exact_answer.Contains({v.FindConstant("Ann")}));
  EXPECT_FALSE(exact_answer.Contains({v.FindConstant("Eve")}));

  // The approximation must be sound: a subset of the exact answer.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                       ApproxEvaluator::Make(&lb_, ApproxOptions{}));
  ASSERT_OK_AND_ASSIGN(Relation approx_answer, approx->Answer(q));
  EXPECT_TRUE(approx_answer.IsSubsetOf(exact_answer));
}

TEST_F(CompanyTest, TheoryRoundTripsThroughTheEvaluator) {
  Theory theory = TheoryOf(&lb_);
  // |C| choose 2 among the 7 known constants, none touching EvesDept.
  EXPECT_EQ(theory.uniqueness.size(), 21u);
  PhysicalDatabase ph1 = MakePh1(lb_);
  Evaluator eval(&ph1);
  for (const FormulaPtr& s : theory.AllSentences()) {
    ASSERT_OK_AND_ASSIGN(bool sat, eval.Satisfies(s));
    EXPECT_TRUE(sat) << PrintFormula(lb_.vocab(), s);
  }
}

TEST_F(CompanyTest, RaPipelineProducesSameAnswersAsEvaluator) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery(lb_.mutable_vocab(),
                 "(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)"));
  PhysicalDatabase ph1 = MakePh1(lb_);

  Evaluator eval(&ph1);
  ASSERT_OK_AND_ASSIGN(Relation direct, eval.Answer(q));

  RaCompiler compiler(&lb_.vocab());
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(q));
  RaExecutor executor(&ph1);
  ASSERT_OK_AND_ASSIGN(RaTable table, executor.Execute(plan));
  EXPECT_EQ(table.rel, direct);
}

TEST_F(CompanyTest, ApproxAnswersAreStableAcrossEngines) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery(lb_.mutable_vocab(),
                 "(x) . !(exists y. EMP_DEPT(x, y) & DEPT_MGR(y, Carol)) & "
                 "exists d. EMP_DEPT(x, d)"));
  ApproxOptions eval_engine;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> a1,
                       ApproxEvaluator::Make(&lb_, eval_engine));
  ASSERT_OK_AND_ASSIGN(Relation r1, a1->Answer(q));

  ApproxOptions ra_engine;
  ra_engine.engine = ApproxEngine::kRelationalAlgebra;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> a2,
                       ApproxEvaluator::Make(&lb_, ra_engine));
  ASSERT_OK_AND_ASSIGN(Relation r2, a2->Answer(q));
  EXPECT_EQ(r1, r2);
}

/// End-to-end: the full §5 deployment story — store Ph₂(LB) in a
/// relational engine, compile Q̂, run it, and get sound answers.
TEST(DeploymentStoryTest, CompileAndRunOnRelationalEngine) {
  CwDatabase lb;
  ConstId jack = lb.AddUnknownConstant("Jack");
  lb.AddKnownConstant("Alice");
  ConstId bob = lb.AddKnownConstant("Bob");
  PredId suspect = lb.AddPredicate("SUSPECT", 1).value();
  ASSERT_OK(lb.AddFact(suspect, {jack}));
  ASSERT_OK(lb.AddDistinct("Jack", "Bob"));

  ApproxOptions options;
  options.engine = ApproxEngine::kRelationalAlgebra;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                       ApproxEvaluator::Make(&lb, options));
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery(lb.mutable_vocab(), "(x) . !SUSPECT(x)"));
  ASSERT_OK_AND_ASSIGN(Relation answer, approx->Answer(q));
  // Bob is provably not the suspect; Alice might be Jack.
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains({bob}));
}

}  // namespace
}  // namespace lqdb
