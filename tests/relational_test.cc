#include <gtest/gtest.h>

#include "lqdb/logic/vocabulary.h"
#include "lqdb/relational/database.h"
#include "lqdb/relational/relation.h"
#include "lqdb/relational/tuple.h"
#include "testing.h"

namespace lqdb {
namespace {

TEST(RelationTest, InsertAndContains) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));  // duplicate
  EXPECT_TRUE(r.Insert({2, 1}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({3, 3}));
}

TEST(RelationTest, NullaryRelation) {
  Relation r(0);
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.Insert({}));
  EXPECT_FALSE(r.Insert({}));
  EXPECT_TRUE(r.Contains({}));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, SortedTuplesAreDeterministic) {
  Relation r(2);
  r.Insert({3, 1});
  r.Insert({1, 2});
  r.Insert({1, 1});
  std::vector<Tuple> sorted = r.SortedTuples();
  EXPECT_EQ(sorted, (std::vector<Tuple>{{1, 1}, {1, 2}, {3, 1}}));
}

TEST(RelationTest, SubsetAndEquality) {
  Relation a(1), b(1);
  a.Insert({1});
  b.Insert({1});
  b.Insert({2});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_NE(a, b);
  a.Insert({2});
  EXPECT_EQ(a, b);
  Relation c(2);
  EXPECT_FALSE(a.IsSubsetOf(c));  // arity mismatch
}

TEST(TupleTest, HashSpreadsValues) {
  TupleHash h;
  EXPECT_NE(h({1, 2}), h({2, 1}));
  EXPECT_EQ(h({1, 2}), h({1, 2}));
}

TEST(TupleTest, ToStringUsesNamer) {
  Tuple t{0, 1};
  std::string s =
      TupleToString(t, [](Value v) { return std::string(1, 'a' + v); });
  EXPECT_EQ(s, "(a, b)");
}

TEST(PhysicalDatabaseTest, DomainAndConstants) {
  Vocabulary v;
  ConstId a = v.AddConstant("A");
  ConstId b = v.AddConstant("B");
  PhysicalDatabase db(&v);
  db.AddDomainValue(0);
  db.AddDomainValue(1);
  db.AddDomainValue(1);  // idempotent
  EXPECT_EQ(db.domain_size(), 2u);

  ASSERT_OK(db.SetConstant(a, 0));
  ASSERT_OK(db.SetConstant(b, 0));  // two constants may share a value
  EXPECT_EQ(db.ConstantValue(a), 0u);
  EXPECT_EQ(db.ConstantValue(b), 0u);
  EXPECT_FALSE(db.SetConstant(a, 99).ok());  // outside the domain
}

TEST(PhysicalDatabaseTest, IdentityInterpretation) {
  Vocabulary v;
  v.AddConstant("A");
  v.AddConstant("B");
  PhysicalDatabase db(&v);
  db.InterpretConstantsAsThemselves();
  EXPECT_EQ(db.domain_size(), 2u);
  EXPECT_EQ(db.ConstantValue(0), 0u);
  EXPECT_EQ(db.ConstantValue(1), 1u);
  EXPECT_OK(db.Validate());
}

TEST(PhysicalDatabaseTest, RelationsCheckArityAndDomain) {
  Vocabulary v;
  v.AddConstant("A");
  PredId p = v.AddPredicate("P", 2).value();
  PhysicalDatabase db(&v);
  db.InterpretConstantsAsThemselves();
  EXPECT_FALSE(db.AddTuple(p, {0}).ok());       // arity
  EXPECT_FALSE(db.AddTuple(p, {0, 42}).ok());   // outside domain
  ASSERT_OK(db.AddTuple(p, {0, 0}));
  EXPECT_TRUE(db.relation(p).Contains({0, 0}));
  EXPECT_TRUE(db.HasRelation(p));
}

TEST(PhysicalDatabaseTest, MissingRelationIsEmpty) {
  Vocabulary v;
  v.AddConstant("A");
  PredId p = v.AddPredicate("P", 3).value();
  PhysicalDatabase db(&v);
  db.InterpretConstantsAsThemselves();
  EXPECT_FALSE(db.HasRelation(p));
  EXPECT_EQ(db.relation(p).arity(), 3);
  EXPECT_TRUE(db.relation(p).empty());
}

TEST(PhysicalDatabaseTest, ValidateRequiresNonemptyDomain) {
  Vocabulary v;
  PhysicalDatabase empty(&v);
  EXPECT_EQ(empty.Validate().code(), StatusCode::kFailedPrecondition);

  v.AddConstant("A");
  PhysicalDatabase db(&v);
  db.AddDomainValue(7);
  EXPECT_OK(db.Validate());  // missing constants are caught at eval time
  EXPECT_EQ(db.LookupConstant(0).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_OK(db.SetConstant(0, 7));
  ASSERT_OK_AND_ASSIGN(Value a, db.LookupConstant(0));
  EXPECT_EQ(a, 7u);
}

TEST(PhysicalDatabaseTest, SetRelationReplacesWholesale) {
  Vocabulary v;
  v.AddConstant("A");
  PredId p = v.AddPredicate("P", 1).value();
  PhysicalDatabase db(&v);
  db.InterpretConstantsAsThemselves();
  ASSERT_OK(db.AddTuple(p, {0}));
  Relation fresh(1);
  ASSERT_OK(db.SetRelation(p, fresh));
  EXPECT_TRUE(db.relation(p).empty());
  Relation wrong(2);
  EXPECT_FALSE(db.SetRelation(p, wrong).ok());
}

TEST(PhysicalDatabaseTest, ToStringMentionsEverything) {
  Vocabulary v;
  v.AddConstant("Alice");
  PredId p = v.AddPredicate("Emp", 1).value();
  PhysicalDatabase db(&v);
  db.InterpretConstantsAsThemselves();
  ASSERT_OK(db.AddTuple(p, {0}));
  std::string s = db.ToString();
  EXPECT_NE(s.find("Alice"), std::string::npos);
  EXPECT_NE(s.find("Emp"), std::string::npos);
}

}  // namespace
}  // namespace lqdb
