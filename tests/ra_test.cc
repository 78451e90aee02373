#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <string>

#include "lqdb/cwdb/mapping.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/exact.h"
#include "lqdb/exact/ra_exact.h"
#include "lqdb/logic/parser.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/executor.h"
#include "lqdb/ra/plan.h"
#include "lqdb/ra/semijoin.h"
#include "lqdb/util/rng.h"
#include "testing.h"

namespace {

// The heap allocations this thread makes while `t_count_allocations` is
// set, counted by the replaced global allocation functions below, so a
// test can assert that a loop allocates nothing.
thread_local bool t_count_allocations = false;
thread_local size_t t_allocations = 0;

void* CountedMalloc(std::size_t size) {
  if (t_count_allocations) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// All scalar forms are replaced, so that a sanitizer runtime's own forms
// never free what these allocate, or the reverse.
void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lqdb {
namespace {

using testing::RandomCwDatabase;
using testing::RandomDbParams;
using testing::RandomFormula;
using testing::RandomFormulaParams;
using testing::RandomQuery;

class RaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = vocab_.AddConstant("A");
    b_ = vocab_.AddConstant("B");
    c_ = vocab_.AddConstant("C");
    p_ = vocab_.AddPredicate("P", 1).value();
    r_ = vocab_.AddPredicate("R", 2).value();
    db_ = std::make_unique<PhysicalDatabase>(&vocab_);
    db_->InterpretConstantsAsThemselves();
    ASSERT_OK(db_->AddTuple(p_, {a_}));
    ASSERT_OK(db_->AddTuple(p_, {b_}));
    ASSERT_OK(db_->AddTuple(r_, {a_, b_}));
    ASSERT_OK(db_->AddTuple(r_, {b_, c_}));
    ASSERT_OK(db_->AddTuple(r_, {c_, c_}));
  }

  RaTable Exec(const PlanPtr& plan) {
    RaExecutor ex(db_.get());
    auto r = ex.Execute(plan);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  }

  Vocabulary vocab_;
  ConstId a_, b_, c_;
  PredId p_, r_;
  std::unique_ptr<PhysicalDatabase> db_;
};

TEST_F(RaTest, ScanProjectsVariables) {
  VarId x = vocab_.AddVariable("x");
  ASSERT_OK_AND_ASSIGN(
      PlanPtr plan,
      Plan::Scan(vocab_, r_, {Term::Variable(x), Term::Constant(c_)}));
  RaTable t = Exec(plan);
  EXPECT_EQ(t.schema, std::vector<VarId>{x});
  EXPECT_EQ(t.rel.size(), 2u);  // (b, c) and (c, c) match column 1 = C
  EXPECT_TRUE(t.rel.Contains({b_}));
  EXPECT_TRUE(t.rel.Contains({c_}));
}

TEST_F(RaTest, ScanWithRepeatedVariableFilters) {
  VarId x = vocab_.AddVariable("x");
  ASSERT_OK_AND_ASSIGN(
      PlanPtr plan,
      Plan::Scan(vocab_, r_, {Term::Variable(x), Term::Variable(x)}));
  RaTable t = Exec(plan);
  EXPECT_EQ(t.rel.size(), 1u);
  EXPECT_TRUE(t.rel.Contains({c_}));
}

TEST_F(RaTest, ScanChecksArity) {
  VarId x = vocab_.AddVariable("x");
  EXPECT_FALSE(Plan::Scan(vocab_, r_, {Term::Variable(x)}).ok());
}

TEST_F(RaTest, JoinOnSharedVariable) {
  VarId x = vocab_.AddVariable("x");
  VarId y = vocab_.AddVariable("y");
  ASSERT_OK_AND_ASSIGN(PlanPtr scan_p, Plan::Scan(vocab_, p_,
                                                  {Term::Variable(x)}));
  ASSERT_OK_AND_ASSIGN(
      PlanPtr scan_r,
      Plan::Scan(vocab_, r_, {Term::Variable(x), Term::Variable(y)}));
  ASSERT_OK_AND_ASSIGN(PlanPtr join, Plan::Join(scan_p, scan_r));
  RaTable t = Exec(join);
  EXPECT_EQ(t.schema, (std::vector<VarId>{x, y}));
  EXPECT_EQ(t.rel.size(), 2u);  // (a,b), (b,c)
  EXPECT_TRUE(t.rel.Contains({a_, b_}));
  EXPECT_TRUE(t.rel.Contains({b_, c_}));
}

TEST_F(RaTest, JoinWithoutSharedVariablesIsProduct) {
  VarId x = vocab_.AddVariable("x");
  VarId y = vocab_.AddVariable("y");
  ASSERT_OK_AND_ASSIGN(PlanPtr sp, Plan::Scan(vocab_, p_,
                                              {Term::Variable(x)}));
  ASSERT_OK_AND_ASSIGN(PlanPtr sq, Plan::Scan(vocab_, p_,
                                              {Term::Variable(y)}));
  ASSERT_OK_AND_ASSIGN(PlanPtr join, Plan::Join(sp, sq));
  RaTable t = Exec(join);
  EXPECT_EQ(t.rel.size(), 4u);
}

TEST_F(RaTest, AntiJoinKeepsNonMatching) {
  VarId x = vocab_.AddVariable("x");
  PlanPtr dom = Plan::DomainScan(x);
  ASSERT_OK_AND_ASSIGN(PlanPtr sp, Plan::Scan(vocab_, p_,
                                              {Term::Variable(x)}));
  ASSERT_OK_AND_ASSIGN(PlanPtr anti, Plan::AntiJoin(dom, sp));
  RaTable t = Exec(anti);
  EXPECT_EQ(t.rel.size(), 1u);
  EXPECT_TRUE(t.rel.Contains({c_}));
}

TEST_F(RaTest, UnionAlignsColumns) {
  VarId x = vocab_.AddVariable("x");
  VarId y = vocab_.AddVariable("y");
  ASSERT_OK_AND_ASSIGN(
      PlanPtr r1,
      Plan::Scan(vocab_, r_, {Term::Variable(x), Term::Variable(y)}));
  ASSERT_OK_AND_ASSIGN(
      PlanPtr r2,
      Plan::Scan(vocab_, r_, {Term::Variable(y), Term::Variable(x)}));
  ASSERT_OK_AND_ASSIGN(PlanPtr u, Plan::Union(r1, r2));
  RaTable t = Exec(u);
  // R ∪ R⁻¹ as (x, y) tuples.
  EXPECT_EQ(t.rel.size(), 5u);  // (a,b),(b,c),(c,c),(b,a),(c,b)
}

TEST_F(RaTest, UnionRejectsSchemaMismatch) {
  VarId x = vocab_.AddVariable("x");
  VarId y = vocab_.AddVariable("y");
  PlanPtr dx = Plan::DomainScan(x);
  PlanPtr dy = Plan::DomainScan(y);
  EXPECT_FALSE(Plan::Union(dx, dy).ok());
}

TEST_F(RaTest, ProjectReordersAndDedups) {
  VarId x = vocab_.AddVariable("x");
  VarId y = vocab_.AddVariable("y");
  ASSERT_OK_AND_ASSIGN(
      PlanPtr scan,
      Plan::Scan(vocab_, r_, {Term::Variable(x), Term::Variable(y)}));
  ASSERT_OK_AND_ASSIGN(PlanPtr proj, Plan::Project(scan, {y}));
  RaTable t = Exec(proj);
  EXPECT_EQ(t.rel.size(), 2u);  // {b, c}
  ASSERT_OK_AND_ASSIGN(PlanPtr swap, Plan::Project(scan, {y, x}));
  RaTable t2 = Exec(swap);
  EXPECT_TRUE(t2.rel.Contains({b_, a_}));
}

TEST_F(RaTest, ConstTuplesAndCompare) {
  VarId x = vocab_.AddVariable("x");
  ASSERT_OK_AND_ASSIGN(PlanPtr consts, Plan::ConstTuples({x}, {{a_}, {c_}}));
  RaTable t = Exec(consts);
  EXPECT_EQ(t.rel.size(), 2u);

  RaTable eq = Exec(Plan::ConstCompare(a_, a_));
  EXPECT_EQ(eq.rel.size(), 1u);
  RaTable neq = Exec(Plan::ConstCompare(a_, b_));
  EXPECT_TRUE(neq.rel.empty());
}

/// A constant interned after the database was built has no value in it:
/// every plan node that reads a constant fails with the evaluator's status
/// instead of reading a missing value.
TEST_F(RaTest, ConstantWithoutAValueIsAnError) {
  const ConstId late = vocab_.AddConstant("Late");
  VarId x = vocab_.AddVariable("x");
  ASSERT_OK_AND_ASSIGN(
      PlanPtr scan,
      Plan::Scan(vocab_, r_, {Term::Variable(x), Term::Constant(late)}));
  ASSERT_OK_AND_ASSIGN(PlanPtr consts, Plan::ConstTuples({x}, {{late}}));
  for (const PlanPtr& plan :
       {scan, consts, Plan::ConstCompare(a_, late)}) {
    RaExecutor ex(db_.get());
    Result<RaTable> got = ex.Execute(plan);
    ASSERT_FALSE(got.ok()) << plan->ToString(vocab_);
    EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(got.status().message().find("'Late' has no interpretation"),
              std::string::npos)
        << got.status();
  }
}

TEST_F(RaTest, EqDomain) {
  VarId x = vocab_.AddVariable("x");
  VarId y = vocab_.AddVariable("y");
  ASSERT_OK_AND_ASSIGN(PlanPtr eq, Plan::EqDomain(x, y));
  RaTable t = Exec(eq);
  EXPECT_EQ(t.rel.size(), 3u);
  EXPECT_TRUE(t.rel.Contains({a_, a_}));
  EXPECT_FALSE(Plan::EqDomain(x, x).ok());
}

TEST_F(RaTest, PlanToStringShowsTree) {
  VarId x = vocab_.AddVariable("x");
  ASSERT_OK_AND_ASSIGN(PlanPtr sp, Plan::Scan(vocab_, p_,
                                              {Term::Variable(x)}));
  ASSERT_OK_AND_ASSIGN(PlanPtr anti, Plan::AntiJoin(Plan::DomainScan(x), sp));
  EXPECT_EQ(anti->ToString(vocab_),
            "AntiJoin -> [x]\n"
            "  DomainScan -> [x]\n"
            "  Scan P(x) -> [x]\n");
  EXPECT_EQ(anti->NumUniqueNodes(), 3u);

  // A node with two parents prints in full once, tagged #1; the second
  // reference repeats the tag and does not descend. The suffix annotates
  // every fully printed node.
  ASSERT_OK_AND_ASSIGN(PlanPtr dag, Plan::Union(sp, anti));
  EXPECT_EQ(dag->NumUniqueNodes(), 4u);
  const Plan::NodeSuffix arity = [](const PlanPtr& node) {
    return "  <" + std::to_string(node->schema().size()) + ">";
  };
  EXPECT_EQ(dag->ToString(vocab_, arity),
            "Union -> [x]  <1>\n"
            "  #1 Scan P(x) -> [x]  <1>\n"
            "  AntiJoin -> [x]  <1>\n"
            "    DomainScan -> [x]  <1>\n"
            "    #1 Scan P(x) -> [x]  (shared)\n");
}

class CompilerEquivalenceTest : public RaTest {};

TEST_F(CompilerEquivalenceTest, CompiledQueriesMatchEvaluator) {
  const char* queries[] = {
      "(x) . P(x)",
      "(x) . !P(x)",
      "(x, y) . R(x, y) & P(x)",
      "(x, y) . R(x, y) | R(y, x)",
      "(x) . exists y. R(x, y)",
      "(x) . forall y. R(x, y) -> P(y)",
      "(x) . P(x) & !(exists y. R(y, x))",
      "(x) . x = A | x = B",
      "(x, y) . x = y & P(x)",
      "(x) . P(x) <-> x = C",
      "exists x. forall y. R(x, y) -> x = y",
      "(x) . !(P(x) & !P(x))",
      "(x, y) . !R(x, y)",
      "(w) . true",
      "(x) . false",
      "(x) . A = A & P(x)",
      "(x) . A = B | P(x)",
  };
  for (const char* text : queries) {
    ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(&vocab_, text));
    Evaluator eval(db_.get());
    ASSERT_OK_AND_ASSIGN(Relation expected, eval.Answer(q));

    RaCompiler compiler(&vocab_);
    ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(q));
    RaExecutor ex(db_.get());
    ASSERT_OK_AND_ASSIGN(RaTable got, ex.Execute(plan));
    EXPECT_EQ(got.rel, expected) << "query: " << text;
  }
}

TEST_F(CompilerEquivalenceTest, RandomFormulasAgree) {
  for (uint64_t seed = 100; seed < 160; ++seed) {
    Rng rng(seed);
    RandomFormulaParams params;
    params.free_vars = {"hx", "hy"};
    params.max_depth = 4;
    FormulaPtr body = RandomFormula(&rng, &vocab_, params);
    std::vector<VarId> head = {vocab_.AddVariable("hx"),
                               vocab_.AddVariable("hy")};
    ASSERT_OK_AND_ASSIGN(Query q, Query::Make(head, body));

    Evaluator eval(db_.get());
    ASSERT_OK_AND_ASSIGN(Relation expected, eval.Answer(q));

    RaCompiler compiler(&vocab_);
    ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(q));
    RaExecutor ex(db_.get());
    ASSERT_OK_AND_ASSIGN(RaTable got, ex.Execute(plan));
    EXPECT_EQ(got.rel, expected) << "seed " << seed;
  }
}

TEST_F(CompilerEquivalenceTest, VacuousQuantifiersNeedAWitnessOnEmptyDomains) {
  // Regression: `∃x. φ` with x not free in φ used to compile to φ alone, on
  // the claim that domains are nonempty — false for a physical database
  // with an empty domain, where every existential is false and every
  // universal is true. The Evaluator refuses empty domains outright, so
  // the expectations here are first-principles; the compiled plans must
  // not silently claim a witness no domain provides. All queries are
  // constant-free so the plans never consult a constant interpretation.
  PhysicalDatabase empty(&vocab_);
  struct Case {
    const char* text;
    bool holds;  // over the empty domain
  };
  const Case cases[] = {
      {"exists x. true", false},  // the old compiler said true
      {"exists x. x = x", false},
      {"exists x. !P(x)", false},
      {"forall x. false", true},
      {"forall x. P(x)", true},
      {"exists x. forall y. true", false},
  };
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(&vocab_, c.text));
    RaCompiler compiler(&vocab_);
    ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(q));
    RaExecutor ex(&empty);
    ASSERT_OK_AND_ASSIGN(RaTable got, ex.Execute(plan));
    EXPECT_EQ(!got.rel.empty(), c.holds) << "query: " << c.text;

    // On a nonempty domain the Evaluator is the oracle, and the vacuous
    // quantifier must still behave like a quantifier there.
    Evaluator eval(db_.get());
    ASSERT_OK_AND_ASSIGN(Relation expected, eval.Answer(q));
    RaExecutor ex2(db_.get());
    ASSERT_OK_AND_ASSIGN(RaTable got2, ex2.Execute(plan));
    EXPECT_EQ(got2.rel, expected) << "query: " << c.text;
  }
}

TEST_F(RaTest, GuardedForallCompilesToAnAntiJoinWithoutAUniverse) {
  // ∀y (R(x,y) → P(y)) compiles its violating set R ∧ ¬P as a single
  // anti-join keyed on P's variable — not by complementing the compiled
  // implication, which would materialize a |C|² domain-product universe
  // (a Union of ¬R and padded P) per image.
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery(&vocab_, "(x) . forall y. R(x, y) -> P(y)"));
  RaCompiler compiler(&vocab_);
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(q));
  const std::string s = plan->ToString(vocab_);
  EXPECT_EQ(s.find("Union"), std::string::npos) << s;
  EXPECT_NE(s.find("AntiJoin"), std::string::npos) << s;
  // Outer complement over {x} plus the violating-set anti-join; the old
  // route paid a third anti-join to complement the implication.
  size_t anti_joins = 0;
  for (size_t pos = s.find("AntiJoin"); pos != std::string::npos;
       pos = s.find("AntiJoin", pos + 1)) {
    ++anti_joins;
  }
  EXPECT_EQ(anti_joins, 2u) << s;
}

TEST_F(RaTest, NestedIffCompilesToALinearDag) {
  // Regression: `↔`/`→`/`∀` used to desugar at the formula level,
  // duplicating child subtrees — compiled plan size was exponential in the
  // nesting depth. Each child is now compiled once and its PlanPtr shared
  // between the branches, so the DAG grows linearly.
  VarId x = vocab_.AddVariable("x");
  FormulaPtr atom = Formula::Atom(p_, {Term::Variable(x)});
  constexpr int kDepth = 12;
  FormulaPtr f = atom;
  for (int i = 0; i < kDepth; ++i) f = Formula::Iff(f, atom);
  ASSERT_OK_AND_ASSIGN(Query q, Query::Make({x}, f));

  RaCompiler compiler(&vocab_);
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(q));
  EXPECT_LE(plan->NumUniqueNodes(), 16u * kDepth + 16u);
  // The dump prints each shared subplan once and tags its later
  // references, so it is linear in the DAG too: at most one line per
  // child edge of a fully printed node, plus the root.
  const std::string dump = plan->ToString(vocab_);
  const auto lines = [](const std::string& s) {
    return static_cast<size_t>(std::count(s.begin(), s.end(), '\n'));
  };
  EXPECT_LE(lines(dump), 2 * plan->NumUniqueNodes() + 1);
  EXPECT_NE(dump.find("#1 "), std::string::npos);
  EXPECT_NE(dump.find("(shared)"), std::string::npos);
  EXPECT_EQ(lines(compiler.AnnotatePlan(plan)), lines(dump));

  // The memoizing executor evaluates each shared subplan once, and the
  // answer matches the evaluator's.
  Evaluator eval(db_.get());
  ASSERT_OK_AND_ASSIGN(Relation expected, eval.Answer(q));
  RaTable t = Exec(plan);
  EXPECT_EQ(t.rel, expected);
}

TEST_F(RaTest, JoinOrderFollowsCardinalityEstimates) {
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery(&vocab_, "(x, y) . R(x, y) & P(x)"));

  RaCardinalities stats;
  stats.domain_size = 3.0;
  stats.relation_sizes.assign(vocab_.num_predicates(), 0.0);
  stats.relation_sizes[p_] = 2.0;
  stats.relation_sizes[r_] = 1000.0;
  RaCompiler compiler(&vocab_, stats);
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(q));
  // The greedy ordering seeds the join with the smaller input: P's scan is
  // the left side even though R(x, y) appears first in the formula.
  ASSERT_EQ(plan->kind(), PlanKind::kProject);
  ASSERT_EQ(plan->child()->kind(), PlanKind::kJoin);
  ASSERT_EQ(plan->child()->left()->kind(), PlanKind::kScan);
  EXPECT_EQ(plan->child()->left()->pred(), p_);

  // Flip the sizes and R seeds the join instead.
  stats.relation_sizes[p_] = 1000.0;
  stats.relation_sizes[r_] = 2.0;
  RaCompiler flipped(&vocab_, stats);
  ASSERT_OK_AND_ASSIGN(PlanPtr plan2, flipped.Compile(q));
  ASSERT_EQ(plan2->kind(), PlanKind::kProject);
  ASSERT_EQ(plan2->child()->kind(), PlanKind::kJoin);
  ASSERT_EQ(plan2->child()->left()->kind(), PlanKind::kScan);
  EXPECT_EQ(plan2->child()->left()->pred(), r_);
}

TEST(RaExactEvaluatorTest, MatchesExactAndRunsOneCompiledBindingRepeatedly) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("TEACHES", {"Socrates", "Plato"}));
  lb.AddUnknownConstant("Mystery");
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery(vocab, "(x) . TEACHES(Socrates, x)"));

  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(Relation expected, exact.Answer(q));
  ASSERT_OK_AND_ASSIGN(Relation possible_expected, exact.PossibleAnswer(q));

  // A `Query`-taking call compiles its binding for that one call.
  RaExactEvaluator ra(&lb);
  ASSERT_OK_AND_ASSIGN(Relation got, ra.Answer(q));
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(ra.last_used_ra());
  EXPECT_GE(ra.last_mappings_examined(), 1u);

  // One compiled binding — the prepared-statement path — serves repeated
  // calls, certain and possible alike, through its reduced plan.
  ASSERT_OK_AND_ASSIGN(BoundQuery bound, BoundQuery::Bind(q));
  const RaCardinalities stats =
      RaCardinalitiesFor(lb, ExactOptions{}.ra_dp_join_cap);
  ASSERT_OK(bound.CompileRaPlan(lb.vocab(), &stats));
  ASSERT_NE(bound.ra_plan(), nullptr);
  ASSERT_NE(bound.ra_reduced().plan, nullptr);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(Relation again, ra.AnswerBound(bound));
    EXPECT_EQ(again, expected);
    EXPECT_TRUE(ra.last_used_ra());
    ASSERT_OK_AND_ASSIGN(Relation possible, ra.PossibleAnswerBound(bound));
    EXPECT_EQ(possible, possible_expected);
    EXPECT_TRUE(ra.last_used_ra());
  }

  ASSERT_OK_AND_ASSIGN(Query q2, ParseQuery(vocab, "(x) . !TEACHES(x, x)"));
  ASSERT_OK_AND_ASSIGN(Relation got2, ra.Answer(q2));
  ASSERT_OK_AND_ASSIGN(Relation expected2, exact.Answer(q2));
  EXPECT_EQ(got2, expected2);
}

TEST(RaExactEvaluatorTest, SecondOrderQueriesFallBackToTheBatchedPath) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  lb.AddUnknownConstant("U");
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery(vocab, "exists2 S/1. exists x. S(x)"));

  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(bool expected, exact.Contains(q, {}));

  RaExactEvaluator ra(&lb);
  ASSERT_OK_AND_ASSIGN(bool got, ra.Contains(q, {}));
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(ra.last_used_ra());
  // A binding whose compile recorded `Unimplemented` takes the fallback as
  // it is, on every call.
  ASSERT_OK_AND_ASSIGN(BoundQuery bound, BoundQuery::Bind(q));
  EXPECT_EQ(bound.CompileRaPlan(lb.vocab()).code(),
            StatusCode::kUnimplemented);
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(Relation again, ra.AnswerBound(bound));
    EXPECT_EQ(again.empty(), !expected);
    EXPECT_FALSE(ra.last_used_ra());
  }
}

#ifndef NDEBUG
/// Debug builds validate both plans inside `CompileRaPlan`. A finding is a
/// library bug: the binding records it as `Internal`, and the engine
/// returns that status instead of running the plan or falling back.
TEST(RaExactEvaluatorTest, ValidatorFindingIsTheBindingsInternalStatus) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  lb.AddUnknownConstant("U");
  ASSERT_OK(ParseQuery(lb.mutable_vocab(), "(x) . P(x)").status());
  const Vocabulary before = lb.vocab();  // knows `x`, not `Zed`
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery(lb.mutable_vocab(), "(x) . x = Zed"));
  ASSERT_OK_AND_ASSIGN(BoundQuery bound, BoundQuery::Bind(q));
  // Compiled over the vocabulary from before `Zed` was interned, the plan
  // names a constant id out of that vocabulary's range.
  EXPECT_EQ(bound.CompileRaPlan(before).code(), StatusCode::kInternal);
  EXPECT_EQ(bound.ra_plan(), nullptr);

  RaExactEvaluator ra(&lb);
  EXPECT_EQ(ra.AnswerBound(bound).status().code(), StatusCode::kInternal);
  EXPECT_EQ(ra.PossibleAnswerBound(bound).status().code(),
            StatusCode::kInternal);
}
#endif  // NDEBUG

/// A prepared binding's plan may be freed after its call, and the next
/// compiled plan may be allocated at the freed address: the engine must
/// not serve the new plan the freed plan's semijoin reduction.
TEST(RaExactEvaluatorTest, FreedPlansDoNotLendTheirReductionToNewPlans) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("R", {"A", "B"}));
  ASSERT_OK(lb.AddFact("R", {"B", "C"}));
  ASSERT_OK(lb.AddFact("P", {"B"}));
  ASSERT_OK(lb.AddFact("Q", {"C"}));
  lb.AddUnknownConstant("U");
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query qp,
                       ParseQuery(vocab, "(x) . exists y. R(x, y) & P(y)"));
  ASSERT_OK_AND_ASSIGN(Query qq,
                       ParseQuery(vocab, "(x) . exists y. R(x, y) & Q(y)"));
  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(Relation want_p, exact.Answer(qp));
  ASSERT_OK_AND_ASSIGN(Relation want_q, exact.Answer(qq));
  ASSERT_NE(want_p, want_q);

  RaExactEvaluator ra(&lb);
  for (int i = 0; i < 200; ++i) {
    const bool p = i % 2 == 0;
    ASSERT_OK_AND_ASSIGN(BoundQuery bound, BoundQuery::Bind(p ? qp : qq));
    ASSERT_OK(bound.CompileRaPlan(lb.vocab()));
    ASSERT_OK_AND_ASSIGN(Relation got, ra.AnswerBound(bound));
    EXPECT_EQ(got, p ? want_p : want_q) << "call " << i;
  }  // each binding, the only owner of its plan, dies after its call
}

/// Reading `Ph₁(LB)` through a mapping `h` must answer exactly what
/// executing over the built image `h(Ph₁(LB))` does. For every canonical
/// mapping of a pool of small worlds, the semijoin-reduced plan (every
/// mapped candidate bound) and the unreduced plan give the same rows both
/// ways, and the unreduced rows equal the Tarskian evaluator's answer over
/// the built image (a check the two executors cannot share a bug with).
/// The built side reuses one executor over one scratch image, so it also
/// checks that an executor re-reads a database that changed. The
/// hand-written queries cover where reading through `h` differs from
/// reading the stored values: a repeated variable whose values `h`
/// merges, a scan constant merged with an unknown, an arity-0 predicate,
/// the domain after merges, and constants that occur in no fact (`Lonely`
/// is known, `Nowhere` is interned by the parser).
TEST(RaReadThroughTest, ReadingThroughAMappingEqualsBuildingTheImage) {
  const std::vector<std::string> texts = {
      "(x) . R0(x, x)",
      "(x) . R0(x, K0) | R0(U0, x)",
      "() . Z()",
      "(x) . P0(x) & !Z()",
      "(x, y) . x = y & !R0(x, y)",
      "(x) . !P0(x)",
      "(x) . x = Lonely | R0(x, Lonely)",
      "(x) . !(x = Nowhere) & exists y. R0(y, x)",
  };
  uint64_t images = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    RandomDbParams params;
    params.num_known = 2;
    params.num_unknown = 2;
    params.num_facts = 5;
    std::unique_ptr<CwDatabase> lb = RandomCwDatabase(seed, params);
    lb->AddKnownConstant("Lonely");
    ASSERT_OK_AND_ASSIGN(PredId z, lb->AddPredicate("Z", 0));
    if (seed % 2 == 0) ASSERT_OK(lb->AddFact(z, {}));
    std::vector<Query> queries;
    for (const std::string& text : texts) {
      ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb->mutable_vocab(), text));
      queries.push_back(std::move(q));
    }
    RandomFormulaParams fparams;
    fparams.max_depth = 3;
    fparams.free_vars = {"hx"};
    queries.push_back(RandomQuery(seed + 500, lb->mutable_vocab(), fparams));
    // Built after parsing, so it interprets the constants parsing interned.
    const PhysicalDatabase ph1 = MakePh1(*lb);
    PhysicalDatabase image(&lb->vocab());

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Query& q = queries[qi];
      RaCompiler compiler(&lb->vocab());
      ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(q));
      ASSERT_OK_AND_ASSIGN(ReducedPlan red, SemijoinReduce(plan));
      const std::vector<Tuple> candidates = AllCandidateTuples(
          q.arity(), static_cast<ConstId>(lb->num_constants()));
      RaExecutor through(&ph1);
      RaExecutor built(&image);
      std::vector<Value> cand;
      ForEachCanonicalMapping(*lb, [&](const ConstMapping& h) {
        ApplyMappingInto(*lb, h, &image);
        through.ReadThrough(&h);
        cand.clear();
        for (const Tuple& c : candidates) {
          for (Value v : c) cand.push_back(h[v]);
        }
        if (red.param != nullptr) {
          through.BindParam(red.param.get(), cand.data(), candidates.size());
          built.BindParam(red.param.get(), cand.data(), candidates.size());
        }
        for (const PlanPtr& p : {red.plan, plan}) {
          Result<RaTable> got = through.Execute(p);
          Result<RaTable> want = built.Execute(p);
          EXPECT_TRUE(got.ok() && want.ok()) << got.status() << want.status();
          if (!got.ok() || !want.ok()) return false;
          EXPECT_EQ(got->rel, want->rel)
              << "seed " << seed << ", query " << qi << ", "
              << (p == plan ? "unreduced" : "reduced") << "\nh(Ph1) = "
              << image.ToString();
        }
        Evaluator eval(&image);
        Result<Relation> answer = eval.Answer(q);
        Result<RaTable> got = through.Execute(plan);
        EXPECT_TRUE(answer.ok() && got.ok()) << answer.status();
        if (!answer.ok() || !got.ok()) return false;
        EXPECT_EQ(got->rel, *answer)
            << "seed " << seed << ", query " << qi << "\nh(Ph1) = "
            << image.ToString();
        ++images;
        return !::testing::Test::HasFailure();
      });
      ASSERT_FALSE(::testing::Test::HasFailure());
    }
  }
  EXPECT_GT(images, 1000u);
}

bool HasKind(const PlanPtr& plan, PlanKind kind) {
  if (plan->kind() == kind) return true;
  for (const PlanPtr& child : plan->children()) {
    if (HasKind(child, kind)) return true;
  }
  return false;
}

/// The steady state of a Theorem 1 sweep allocates nothing: one executor
/// runs one reduced plan under every canonical mapping, reading `Ph₁`
/// through the mapping and binding the mapped candidates as the sweep
/// does, and once a first pass has grown every table to its largest image,
/// a second pass over the same mappings makes no heap allocation inside
/// the executor. Only the executor calls are counted: the mapping walker
/// allocates as it opens blocks.
TEST(RaExecutorAllocationTest, ASecondSweepAllocatesNothing) {
  const struct {
    const char* text;
    PlanKind kind;
  } cases[] = {
      {"(x, y) . exists z. R0(x, z) & R0(z, y)", PlanKind::kJoin},
      {"(x) . P0(x) & !R0(x, x)", PlanKind::kAntiJoin},
      {"(x) . forall y. R0(x, y) -> P0(y)", PlanKind::kAntiJoin},
  };
  RandomDbParams params;
  params.num_known = 4;
  params.num_unknown = 3;
  params.num_facts = 60;
  for (const auto& c : cases) {
    std::unique_ptr<CwDatabase> lb = RandomCwDatabase(7, params);
    ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb->mutable_vocab(), c.text));
    const PhysicalDatabase ph1 = MakePh1(*lb);
    RaCompiler compiler(&lb->vocab());
    ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(q));
    ASSERT_OK_AND_ASSIGN(ReducedPlan red, SemijoinReduce(plan));
    ASSERT_TRUE(HasKind(red.plan, c.kind)) << red.plan->ToString(lb->vocab());
    ASSERT_NE(red.param, nullptr);
    const std::vector<Tuple> candidates = AllCandidateTuples(
        q.arity(), static_cast<ConstId>(lb->num_constants()));
    RaExecutor exec(&ph1);
    std::vector<Value> rows;
    auto sweep = [&] {
      size_t allocations = 0;
      ForEachCanonicalMapping(*lb, [&](const ConstMapping& h) {
        rows.clear();
        for (const Tuple& t : candidates) {
          for (Value v : t) rows.push_back(h[v]);
        }
        t_allocations = 0;
        t_count_allocations = true;
        exec.ReadThrough(&h);
        exec.BindParam(red.param.get(), rows.data(), candidates.size());
        const bool ok = exec.ExecuteView(red.plan).ok();
        t_count_allocations = false;
        allocations += t_allocations;
        EXPECT_TRUE(ok);
        return ok;
      });
      return allocations;
    };
    EXPECT_GT(sweep(), 0u) << c.text;
    EXPECT_EQ(sweep(), 0u) << c.text;
  }
}

std::vector<Value> Row(const FlatTable& t, size_t i) {
  return std::vector<Value>(t.row(i), t.row(i) + t.arity());
}

TEST(FlatTableTest, GrowsPastItsFirstArraysAndKeepsInsertionOrder) {
  FlatTable t;
  t.Reset(2);
  // 1000 rows cross the 64-row start and many 3/4-load rehashes.
  for (Value i = 0; i < 1000; ++i) {
    const Value row[2] = {i % 7, i};
    EXPECT_TRUE(t.Insert(row));
  }
  ASSERT_EQ(t.size(), 1000u);
  for (Value i = 0; i < 1000; ++i) {
    EXPECT_EQ(Row(t, i), (std::vector<Value>{i % 7, i}));
    EXPECT_TRUE(t.Contains(Tuple{i % 7, i}));
  }
  EXPECT_FALSE(t.Contains(Tuple{1, 0}));
  EXPECT_FALSE(t.Contains(Tuple{0}));  // wrong arity
}

TEST(FlatTableTest, ADuplicateInsertReturnsFalse) {
  FlatTable t;
  t.Reset(3);
  const Value row[3] = {4, 5, 6};
  EXPECT_TRUE(t.Insert(row));
  EXPECT_FALSE(t.Insert(row));
  const Value copy[3] = {4, 5, 6};
  EXPECT_FALSE(t.Insert(copy));
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlatTableTest, AnArityZeroTableHoldsAtMostTheEmptyRow) {
  FlatTable t;
  t.Reset(0);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.Contains(Tuple{}));
  EXPECT_TRUE(t.Insert(nullptr));
  EXPECT_FALSE(t.Insert(nullptr));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Contains(Tuple{}));
  EXPECT_EQ(t.ToRelation().size(), 1u);
  t.Reset(0);
  EXPECT_FALSE(t.Contains(Tuple{}));
}

TEST(FlatTableTest, ResetToAnotherArityEmptiesTheTable) {
  FlatTable t;
  t.Reset(2);
  for (Value i = 0; i < 100; ++i) {
    const Value row[2] = {i, i + 1};
    t.Insert(row);
  }
  t.Reset(3);
  EXPECT_EQ(t.arity(), 3u);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.Contains(Tuple{0, 1, 2}));
  for (Value i = 0; i < 70; ++i) {
    const Value row[3] = {i, i, i};
    EXPECT_TRUE(t.Insert(row));
  }
  ASSERT_EQ(t.size(), 70u);
  EXPECT_EQ(Row(t, 69), (std::vector<Value>{69, 69, 69}));
  EXPECT_FALSE(t.Contains(Tuple{0, 1, 2}));
  t.Reset(2);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.Contains(Tuple{0, 1}));
}

/// The build rows `index` chains under `key`, in chain order.
std::vector<uint32_t> Chain(const JoinIndex& index, const Value* key) {
  std::vector<uint32_t> rows;
  for (uint32_t r = index.First(key); r != JoinIndex::kNone;
       r = index.Next(r)) {
    rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(JoinIndexTest, LongChainsOfEqualKeys) {
  // Rows (k, i, k) for 4 keys × 100 rows, keyed on columns {2, 0}: build
  // rows hash their key columns in place, probes hash the key as a span.
  FlatTable t;
  t.Reset(3);
  for (Value k = 0; k < 4; ++k) {
    for (Value i = 0; i < 100; ++i) {
      const Value row[3] = {k, i, k};
      t.Insert(row);
    }
  }
  const uint32_t key_cols[2] = {2, 0};
  JoinIndex index;
  index.Build(&t, key_cols, 2);
  for (Value k = 0; k < 4; ++k) {
    const Value key[2] = {k, k};
    std::vector<uint32_t> want;
    for (uint32_t i = 0; i < 100; ++i) want.push_back(k * 100 + i);
    EXPECT_EQ(Chain(index, key), want);
  }
  const Value absent[2] = {4, 4};
  EXPECT_EQ(index.First(absent), JoinIndex::kNone);
  const Value mixed[2] = {1, 2};
  EXPECT_EQ(index.First(mixed), JoinIndex::kNone);
}

TEST(JoinIndexTest, ARebuildOverFewerRowsForgetsTheLastBuild) {
  FlatTable t;
  t.Reset(2);
  for (Value i = 0; i < 300; ++i) {
    const Value row[2] = {i, i % 3};
    t.Insert(row);
  }
  const uint32_t key_cols[1] = {0};
  JoinIndex index;
  index.Build(&t, key_cols, 1);
  const Value big = 250;
  EXPECT_EQ(Chain(index, &big), std::vector<uint32_t>{250});

  t.Reset(2);
  for (Value i = 0; i < 5; ++i) {
    const Value row[2] = {10 - i, i};
    t.Insert(row);
  }
  index.Build(&t, key_cols, 1);
  EXPECT_EQ(index.First(&big), JoinIndex::kNone);
  for (Value i = 0; i < 5; ++i) {
    const Value key = 10 - i;
    EXPECT_EQ(Chain(index, &key), std::vector<uint32_t>{i});
  }
  const Value gone = 3;
  EXPECT_EQ(index.First(&gone), JoinIndex::kNone);
}

TEST_F(CompilerEquivalenceTest, SecondOrderIsRejected) {
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery(&vocab_, "exists2 S/1. exists x. S(x)"));
  RaCompiler compiler(&vocab_);
  EXPECT_EQ(compiler.Compile(q).status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace lqdb
