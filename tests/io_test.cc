#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "lqdb/exact/exact.h"
#include "lqdb/io/text_format.h"
#include "lqdb/logic/parser.h"
#include "testing.h"

namespace lqdb {
namespace {

constexpr const char* kSample = R"(# the Jack-the-Ripper world
unknown JackTheRipper
known Victoria Disraeli
predicate MURDERER/1
fact MURDERER(JackTheRipper)
fact IN_LONDON(JackTheRipper, London)
distinct JackTheRipper Victoria
)";

TEST(TextFormatTest, ParsesSampleDatabase) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<CwDatabase> lb,
                       ParseCwDatabase(kSample));
  const Vocabulary& v = lb->vocab();
  ConstId jack = v.FindConstant("JackTheRipper");
  ASSERT_NE(jack, Vocabulary::kNotFound);
  EXPECT_FALSE(lb->IsKnown(jack));
  EXPECT_TRUE(lb->IsKnown(v.FindConstant("Victoria")));
  EXPECT_TRUE(lb->IsKnown(v.FindConstant("London")));  // from the fact
  EXPECT_EQ(lb->NumFacts(), 2u);
  EXPECT_TRUE(lb->AreDistinct(jack, v.FindConstant("Victoria")));
  EXPECT_FALSE(lb->AreDistinct(jack, v.FindConstant("Disraeli")));
  EXPECT_EQ(v.PredicateArity(v.FindPredicate("IN_LONDON")), 2);
}

TEST(TextFormatTest, RoundTripsThroughSerialize) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<CwDatabase> lb,
                       ParseCwDatabase(kSample));
  std::string text = SerializeCwDatabase(*lb);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<CwDatabase> again,
                       ParseCwDatabase(text));
  EXPECT_EQ(lb->num_constants(), again->num_constants());
  EXPECT_EQ(lb->NumFacts(), again->NumFacts());
  EXPECT_EQ(lb->explicit_distinct().size(),
            again->explicit_distinct().size());
  for (ConstId c = 0; c < lb->num_constants(); ++c) {
    const std::string& name = lb->vocab().ConstantName(c);
    ConstId c2 = again->vocab().FindConstant(name);
    ASSERT_NE(c2, Vocabulary::kNotFound) << name;
    EXPECT_EQ(lb->IsKnown(c), again->IsKnown(c2)) << name;
  }
  // Same answers to a query on both copies.
  auto q1 = ParseQuery(lb->mutable_vocab(), "(x) . !MURDERER(x)");
  auto q2 = ParseQuery(again->mutable_vocab(), "(x) . !MURDERER(x)");
  ExactEvaluator e1(lb.get()), e2(again.get());
  EXPECT_EQ(e1.Answer(q1.value()).value().size(),
            e2.Answer(q2.value()).value().size());
}

TEST(TextFormatTest, RandomDatabasesRoundTrip) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    auto lb = testing::RandomCwDatabase(seed, testing::RandomDbParams{});
    std::string text = SerializeCwDatabase(*lb);
    auto again = ParseCwDatabase(text);
    ASSERT_TRUE(again.ok()) << again.status() << "\n" << text;
    EXPECT_EQ(SerializeCwDatabase(*again.value()), text) << "seed " << seed;
  }
}

TEST(TextFormatTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCwDatabase("teleport Enterprise").ok());
  EXPECT_FALSE(ParseCwDatabase("fact P(").ok());
  EXPECT_FALSE(ParseCwDatabase("fact P").ok());
  EXPECT_FALSE(ParseCwDatabase("distinct OnlyOne").ok());
  EXPECT_FALSE(ParseCwDatabase("distinct A A").ok());
  EXPECT_FALSE(ParseCwDatabase("distinct a( b").ok());
  EXPECT_FALSE(ParseCwDatabase("predicate P").ok());
  EXPECT_FALSE(ParseCwDatabase("predicate P/x").ok());
  EXPECT_FALSE(ParseCwDatabase("known").ok());
  EXPECT_FALSE(ParseCwDatabase("fact P(a) \n predicate P/3").ok());
}

TEST(TextFormatTest, RejectsArityWithTrailingGarbageAndOverflow) {
  // std::stoi's prefix parsing used to read "P/2x" as arity 2 and threw
  // (instead of returning a Status) on arities beyond int range; the
  // strict parse rejects both with a line diagnostic.
  auto garbage = ParseCwDatabase("predicate P/2x");
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.status().message().find("bad arity"), std::string::npos)
      << garbage.status();
  EXPECT_FALSE(ParseCwDatabase("predicate P/-1").ok());
  EXPECT_FALSE(ParseCwDatabase("predicate P/99999999999999999999").ok());
  EXPECT_FALSE(ParseCwDatabase("predicate P/").ok());
}

TEST(TextFormatTest, RejectsKnownUnknownConflict) {
  EXPECT_FALSE(ParseCwDatabase("known A\nunknown A").ok());
  // The reverse order upgrades silently — 'known' is the stronger claim.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<CwDatabase> lb,
                       ParseCwDatabase("unknown A\nknown A"));
  EXPECT_TRUE(lb->IsKnown(lb->vocab().FindConstant("A")));
}

TEST(TextFormatTest, CommentsAndBlankLines) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<CwDatabase> lb,
                       ParseCwDatabase("\n\n# nothing\n   \nknown A # end\n"));
  EXPECT_EQ(lb->num_constants(), 1u);
}

TEST(TextFormatTest, DistinctInternsMissingConstantsAsUnknown) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<CwDatabase> lb,
                       ParseCwDatabase("distinct Ghost1 Ghost2"));
  EXPECT_FALSE(lb->IsKnown(lb->vocab().FindConstant("Ghost1")));
  EXPECT_TRUE(lb->AreDistinct(lb->vocab().FindConstant("Ghost1"),
                              lb->vocab().FindConstant("Ghost2")));
}

TEST(TextFormatTest, FileRoundTrip) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<CwDatabase> lb,
                       ParseCwDatabase(kSample));
  const std::string path = ::testing::TempDir() + "/lqdb_io_test.lqdb";
  ASSERT_OK(SaveCwDatabase(*lb, path));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<CwDatabase> again,
                       LoadCwDatabase(path));
  EXPECT_EQ(SerializeCwDatabase(*again), SerializeCwDatabase(*lb));
  std::remove(path.c_str());
}

// The query lexer and the text format share one identifier rule
// (util/parse.h), so a constant a query interns, such as the primed `B'`,
// is one `save` can write and `load` read back.
TEST(TextFormatTest, ConstantsAQueryInternsRoundTrip) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<CwDatabase> lb,
                       ParseCwDatabase(kSample));
  ASSERT_OK_AND_ASSIGN(
      Query query,
      ParseQuery(lb->mutable_vocab(), "(x) . MURDERER(x) | x = B'"));
  (void)query;
  ASSERT_NE(lb->vocab().FindConstant("B'"), Vocabulary::kNotFound);

  const std::string text = SerializeCwDatabase(*lb);
  auto again = ParseCwDatabase(text);
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << text;
  EXPECT_NE((*again)->vocab().FindConstant("B'"), Vocabulary::kNotFound);
  EXPECT_EQ((*again)->num_constants(), lb->num_constants());
  EXPECT_EQ(SerializeCwDatabase(**again), text);
}

TEST(TextFormatTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadCwDatabase("/no/such/file.lqdb").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace lqdb
