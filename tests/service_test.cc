/// The query service layer: sessions, the shared prepared-statement cache,
/// async execution with cancellation, and the per-session in-flight limit.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lqdb/service/service.h"
#include "tests/testing.h"

namespace lqdb {
namespace {

using ::lqdb::testing::RandomCwDatabase;
using ::lqdb::testing::RandomDbParams;

std::unique_ptr<CwDatabase> MurderDb() {
  auto lb = std::make_unique<CwDatabase>();
  lb->AddUnknownConstant("Jack");
  lb->AddKnownConstant("Victoria");
  lb->AddKnownConstant("Disraeli");
  Status s = lb->AddFact("MURDERER", {"Jack"});
  s = lb->AddDistinct("Jack", "Victoria");
  (void)s;
  return lb;
}

/// A database whose canonical-mapping space is large enough that one
/// execution takes milliseconds — used to keep a 1-thread service busy
/// while cancellation/backpressure is probed.
std::unique_ptr<CwDatabase> SlowDb() {
  RandomDbParams p;
  p.num_known = 4;
  p.num_unknown = 5;  // ~13k canonical mappings: ms-scale, not seconds
  p.num_facts = 10;
  p.explicit_distinct_p = 0.0;  // no axioms → maximal mapping space
  return RandomCwDatabase(17, p);
}

TEST(PreparedCacheTest, SecondPrepareHitsAndAnswersAreIdentical) {
  auto lb = MurderDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());

  const std::string text = "(x) . !MURDERER(x)";
  ASSERT_OK_AND_ASSIGN(PreparedInfo first, session->Prepare(text));
  EXPECT_NE(first.handle, PreparedHandle{0});
  EXPECT_FALSE(first.cache_hit);

  ASSERT_OK_AND_ASSIGN(PreparedInfo second, session->Prepare(text));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.handle, first.handle);

  // A different session with the same engine shares the statement too.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> other,
                       service.OpenSession());
  ASSERT_OK_AND_ASSIGN(PreparedInfo third, other->Prepare(text));
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.handle, first.handle);

  ASSERT_OK_AND_ASSIGN(Relation a, session->Execute(first.handle));
  ASSERT_OK_AND_ASSIGN(Relation b, other->Execute(third.handle));
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.size(), 1u);  // {Victoria}: Jack may be Disraeli, not her

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.prepares, 3u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cached_queries, 1u);
  EXPECT_EQ(stats.executions, 2u);
}

TEST(PreparedCacheTest, HandlesAreScopedByEngine) {
  auto lb = MurderDb();
  Service service(lb.get());
  SessionOptions batched_options;
  batched_options.engine = "batched-exact";
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> exact,
                       service.OpenSession());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> batched,
                       service.OpenSession(batched_options));

  const std::string text = "(x) . !MURDERER(x)";
  ASSERT_OK_AND_ASSIGN(PreparedInfo a, exact->Prepare(text));
  ASSERT_OK_AND_ASSIGN(PreparedInfo b, batched->Prepare(text));
  EXPECT_FALSE(b.cache_hit);  // separate cache entry per engine
  EXPECT_NE(a.handle, b.handle);

  ASSERT_OK_AND_ASSIGN(Relation batched_answer, batched->Execute(b.handle));
  ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact->Execute(a.handle));
  EXPECT_TRUE(batched_answer == exact_answer);
}

TEST(ServiceTest, UnknownEngineFailsAtOpenAndBadHandleAtExecute) {
  auto lb = MurderDb();
  Service service(lb.get());
  SessionOptions bad;
  bad.engine = "frobnicator";
  auto session = service.OpenSession(bad);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kNotFound);

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> ok, service.OpenSession());
  auto missing = ok->Execute(PreparedHandle{987654321});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(ok->Execute(PreparedHandle{0}).ok());
}

TEST(ServiceTest, ParseErrorsSurfaceFromPrepare) {
  auto lb = MurderDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());
  auto bad = session->Prepare("(x . oops");
  ASSERT_FALSE(bad.ok());
  // A failed prepare caches nothing.
  EXPECT_EQ(service.stats().cached_queries, 0u);
}

TEST(ServiceTest, ExecutionTraceRecordsTheLastQuery) {
  auto lb = MurderDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());
  ASSERT_OK_AND_ASSIGN(Relation ignored,
                       session->Query("(x) . !MURDERER(x)"));
  (void)ignored;
  const ExecutionTrace& trace = session->last_trace();
  EXPECT_STREQ(trace.query, "(x) . !MURDERER(x)");
  EXPECT_STREQ(trace.engine, "exact");
  EXPECT_TRUE(trace.ok);
  EXPECT_FALSE(trace.possible);
  EXPECT_GT(trace.mappings_examined, 0u);
  EXPECT_EQ(session->executions(), 1u);
}

TEST(ServiceTest, PossibleAnswerThroughSessions) {
  auto lb = MurderDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());
  ASSERT_OK_AND_ASSIGN(PreparedInfo info,
                       session->Prepare("(x) . MURDERER(x)"));
  ASSERT_OK_AND_ASSIGN(Relation certain, session->Execute(info.handle));
  ASSERT_OK_AND_ASSIGN(Relation possible,
                       session->ExecutePossible(info.handle));
  EXPECT_EQ(certain.size(), 1u);   // {Jack}: h(Jack) is always the murderer
  EXPECT_EQ(possible.size(), 2u);  // {Jack, Disraeli}; never Victoria
  for (const Tuple& t : certain.tuples()) {
    EXPECT_TRUE(possible.Contains(t));  // certain ⊆ possible
  }
}

TEST(ServiceTest, AsyncExecutionMatchesSynchronous) {
  auto lb = MurderDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());
  ASSERT_OK_AND_ASSIGN(PreparedInfo info,
                       session->Prepare("(x) . !MURDERER(x)"));
  ASSERT_OK_AND_ASSIGN(Relation sync, session->Execute(info.handle));

  ASSERT_OK_AND_ASSIGN(AsyncExecution async,
                       session->ExecuteAsync(info.handle));
  Result<Relation> from_future = async.result.get();
  ASSERT_TRUE(from_future.ok()) << from_future.status();
  EXPECT_TRUE(*from_future == sync);
  EXPECT_EQ(session->in_flight(), 0);
}

TEST(ServiceTest, CancelBeforeStartResolvesToCancelled) {
  auto lb = SlowDb();
  ServiceOptions options;
  options.threads = 1;  // strict FIFO: the second task cannot jump the first
  Service service(lb.get(), options);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());
  ASSERT_OK_AND_ASSIGN(PreparedInfo info,
                       session->Prepare("(hx) . P0(hx)"));

  ASSERT_OK_AND_ASSIGN(AsyncExecution busy,
                       session->ExecuteAsync(info.handle));
  ASSERT_OK_AND_ASSIGN(AsyncExecution doomed,
                       session->ExecuteAsync(info.handle));
  doomed.Cancel();  // lands while the worker is still busy with the first

  Result<Relation> first = busy.result.get();
  EXPECT_TRUE(first.ok()) << first.status();
  Result<Relation> second = doomed.result.get();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(session->cancelled(), 1u);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(ServiceTest, InFlightLimitPushesBack) {
  auto lb = SlowDb();
  ServiceOptions options;
  options.threads = 1;
  Service service(lb.get(), options);
  SessionOptions limited;
  limited.max_in_flight = 2;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession(limited));
  ASSERT_OK_AND_ASSIGN(PreparedInfo info,
                       session->Prepare("(hx) . P0(hx)"));

  ASSERT_OK_AND_ASSIGN(AsyncExecution a, session->ExecuteAsync(info.handle));
  ASSERT_OK_AND_ASSIGN(AsyncExecution b, session->ExecuteAsync(info.handle));
  auto rejected = session->ExecuteAsync(info.handle);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  EXPECT_TRUE(a.result.get().ok());
  EXPECT_TRUE(b.result.get().ok());
  // Slots freed: the session accepts work again.
  ASSERT_OK_AND_ASSIGN(AsyncExecution c, session->ExecuteAsync(info.handle));
  EXPECT_TRUE(c.result.get().ok());
}

// Engines only read the database: the §5 approximation builds its `L′`
// (NE, the α predicates, fresh variables) privately on every call. So an
// approx execution leaves the vocabulary and the database version alone,
// and its answers go through the result cache like every other engine's.
TEST(ServiceTest, ApproxReadsTheDatabaseAndItsAnswersAreCached) {
  auto lb = MurderDb();
  Service service(lb.get());
  SessionOptions approx;
  approx.engine = "approx";
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession(approx));
  const std::string text = "(x) . !MURDERER(x)";
  ASSERT_OK_AND_ASSIGN(PreparedInfo info, session->Prepare(text));
  const Vocabulary& vocab = lb->vocab();
  const size_t predicates = vocab.num_predicates();
  const size_t constants = vocab.num_constants();
  const size_t variables = vocab.num_variables();
  const uint64_t version = service.db_version();

  ASSERT_OK_AND_ASSIGN(Relation first, session->Execute(info.handle));
  EXPECT_FALSE(session->last_trace().cached);
  EXPECT_EQ(vocab.num_predicates(), predicates);
  EXPECT_EQ(vocab.num_constants(), constants);
  EXPECT_EQ(vocab.num_variables(), variables);
  EXPECT_EQ(vocab.FindPredicate("NE"), Vocabulary::kNotFound);
  EXPECT_EQ(vocab.FindPredicate("__alpha_MURDERER"), Vocabulary::kNotFound);
  EXPECT_EQ(service.db_version(), version);

  // Deterministic, and the repeat is served from the result cache.
  ASSERT_OK_AND_ASSIGN(Relation again, session->Execute(info.handle));
  EXPECT_TRUE(session->last_trace().cached);
  EXPECT_TRUE(first == again);

  // Soundness: the approximation's answer is contained in the exact one.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> exact,
                       service.OpenSession());
  ASSERT_OK_AND_ASSIGN(Relation truth, exact->Query(text));
  for (const Tuple& t : first.tuples()) {
    EXPECT_TRUE(truth.Contains(t));
  }
  EXPECT_TRUE(first.Contains({lb->vocab().FindConstant("Victoria")}));

  // An update to the relation the query reads drops the cached answer:
  // Victoria is no longer provably innocent.
  ASSERT_OK(service.Assert("MURDERER", {"Victoria"}));
  ASSERT_OK_AND_ASSIGN(Relation after, session->Execute(info.handle));
  EXPECT_FALSE(session->last_trace().cached);
  EXPECT_TRUE(after.empty());
}

/// Eight sessions on distinct threads hammering two shared prepared
/// statements; every concurrent answer must equal the sequential one. This
/// is the in-library face of the multi-session differential test (see
/// tests/differential/) and the reason service_test runs under TSan in CI.
TEST(ServiceTest, ConcurrentSessionsMatchSequentialAnswers) {
  auto lb = MurderDb();
  Service service(lb.get());
  struct Spec {
    std::string engine;
    int threads;
  };
  const std::vector<Spec> engines = {
      {"exact", 1}, {"batched-exact", 1}, {"exact", 2},    {"approx", 1},
      {"exact", 1}, {"batched-exact", 2}, {"physical", 1}, {"brute", 1}};
  const std::vector<std::string> texts = {"(x) . !MURDERER(x)",
                                          "(x) . MURDERER(x)"};

  // Sequential pass: one session per engine, expected answer per (engine,
  // query). Also pre-interns every statement so the concurrent phase is
  // pure cache hits.
  std::vector<std::vector<Relation>> expected;
  std::vector<std::vector<PreparedHandle>> handles;
  for (const Spec& spec : engines) {
    SessionOptions opts;
    opts.engine = spec.engine;
    opts.engine_options.exact.threads = spec.threads;
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                         service.OpenSession(opts));
    std::vector<Relation> answers;
    std::vector<PreparedHandle> hs;
    for (const std::string& text : texts) {
      ASSERT_OK_AND_ASSIGN(PreparedInfo info, session->Prepare(text));
      hs.push_back(info.handle);
      ASSERT_OK_AND_ASSIGN(Relation r, session->Execute(info.handle));
      answers.push_back(std::move(r));
    }
    expected.push_back(std::move(answers));
    handles.push_back(std::move(hs));
  }

  constexpr int kRounds = 10;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < engines.size(); ++i) {
    threads.emplace_back([&, i] {
      SessionOptions opts;
      opts.engine = engines[i].engine;
      opts.engine_options.exact.threads = engines[i].threads;
      Result<std::shared_ptr<Session>> session = service.OpenSession(opts);
      if (!session.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < texts.size(); ++q) {
          Result<Relation> r = (*session)->Execute(handles[i][q]);
          if (!r.ok() || !(*r == expected[i][q])) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cached_queries,
            texts.size() * 5u);  // 5 distinct engines prepared
  EXPECT_GE(stats.executions,
            engines.size() * texts.size() * (kRounds + 1u));
}

/// Two relations so invalidation exactness is observable: a query reading
/// only P must survive updates to Q and vice versa.
std::unique_ptr<CwDatabase> TwoRelationDb() {
  auto lb = std::make_unique<CwDatabase>();
  lb->AddKnownConstant("a");
  lb->AddKnownConstant("b");
  Status s = lb->AddFact("P", {"a"});
  s = lb->AddFact("Q", {"b"});
  (void)s;
  return lb;
}

TEST(ResultCacheTest, RepeatedQueryIsServedFromTheCache) {
  auto lb = TwoRelationDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());

  ASSERT_OK_AND_ASSIGN(Relation first, session->Query("(x) . P(x)"));
  EXPECT_FALSE(session->last_trace().cached);
  ASSERT_OK_AND_ASSIGN(Relation second, session->Query("(x) . P(x)"));
  EXPECT_TRUE(session->last_trace().cached);
  EXPECT_EQ(first, second);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.cached_results, 1u);
  EXPECT_EQ(stats.db_version, 0u);
}

// The stale-read regression: an update must invalidate exactly the cached
// results that read the updated relation — the P-reader recomputes (and
// sees the new fact), the Q-reader keeps hitting.
TEST(ResultCacheTest, AssertInvalidatesExactlyTheDependentResults) {
  auto lb = TwoRelationDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());

  ASSERT_OK_AND_ASSIGN(Relation p_before, session->Query("(x) . P(x)"));
  EXPECT_EQ(p_before.size(), 1u);
  ASSERT_OK_AND_ASSIGN(Relation q_before, session->Query("(x) . Q(x)"));

  ASSERT_OK(service.Assert("P", {"b"}));
  EXPECT_EQ(service.db_version(), 1u);

  // The Q-reader's entry is untouched: still a hit.
  ASSERT_OK_AND_ASSIGN(Relation q_after, session->Query("(x) . Q(x)"));
  EXPECT_TRUE(session->last_trace().cached);
  EXPECT_EQ(q_after, q_before);

  // The P-reader recomputes and must see the asserted fact — a served
  // stale answer would be missing (b).
  ASSERT_OK_AND_ASSIGN(Relation p_after, session->Query("(x) . P(x)"));
  EXPECT_FALSE(session->last_trace().cached);
  EXPECT_EQ(p_after.size(), 2u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.asserts, 1u);
  EXPECT_EQ(stats.result_invalidations, 1u);
}

TEST(ResultCacheTest, RetractInvalidatesAndRestoresTheOriginalAnswer) {
  auto lb = TwoRelationDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());

  ASSERT_OK_AND_ASSIGN(Relation original, session->Query("(x) . P(x)"));
  ASSERT_OK(service.Assert("P", {"b"}));
  ASSERT_OK_AND_ASSIGN(Relation grown, session->Query("(x) . P(x)"));
  EXPECT_EQ(grown.size(), original.size() + 1);

  ASSERT_OK(service.Retract("P", {"b"}));
  ASSERT_OK_AND_ASSIGN(Relation restored, session->Query("(x) . P(x)"));
  EXPECT_FALSE(session->last_trace().cached);  // version moved again
  EXPECT_EQ(restored, original);

  // Retracting a fact that is not stored (or unknown names) is NotFound.
  EXPECT_EQ(service.Retract("P", {"b"}).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Retract("Nope", {"a"}).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Retract("P", {"ghost"}).code(), StatusCode::kNotFound);
}

// Asserting a fact over a brand-new constant grows C, and every Theorem 1
// answer quantifies over all of C — so even queries that read *other*
// relations must drop out of the cache (the global epoch).
TEST(ResultCacheTest, NewConstantInvalidatesEveryCachedResult) {
  auto lb = TwoRelationDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());

  ASSERT_OK_AND_ASSIGN(Relation q_before, session->Query("(x) . Q(x)"));
  ASSERT_OK(service.Assert("P", {"fresh"}));  // interns constant "fresh"

  ASSERT_OK_AND_ASSIGN(Relation q_after, session->Query("(x) . Q(x)"));
  EXPECT_FALSE(session->last_trace().cached);
  EXPECT_EQ(q_after, q_before);  // recomputed, same answer — but recomputed
}

// A prepare whose parse fails may still have interned a constant before
// the error — and `C` grew all the same, so every cached result must drop.
TEST(ResultCacheTest, FailedParseThatGrowsConstantsInvalidates) {
  auto lb = MurderDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession());
  const std::string sentence =
      "forall x. x = Jack | x = Victoria | x = Disraeli";
  ASSERT_OK_AND_ASSIGN(Relation closed, session->Query(sentence));
  EXPECT_TRUE(closed.Contains(Tuple{}));

  EXPECT_FALSE(session->Prepare("(x) . MURDERER(Zed) &").ok());
  ASSERT_NE(lb->vocab().FindConstant("Zed"), Vocabulary::kNotFound);

  ASSERT_OK_AND_ASSIGN(Relation open, session->Query(sentence));
  EXPECT_FALSE(session->last_trace().cached);
  EXPECT_TRUE(open.empty());
}

TEST(ResultCacheTest, DisabledSessionNeverTouchesTheCache) {
  auto lb = TwoRelationDb();
  Service service(lb.get());
  SessionOptions options;
  options.use_result_cache = false;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession(options));

  ASSERT_OK_AND_ASSIGN(Relation first, session->Query("(x) . P(x)"));
  ASSERT_OK_AND_ASSIGN(Relation second, session->Query("(x) . P(x)"));
  EXPECT_EQ(first, second);
  EXPECT_FALSE(session->last_trace().cached);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.cached_results, 0u);
}

// The options-fingerprint regression: a session with a tiny enumeration
// budget must get its own ResourceExhausted, never another session's
// cached (or prepared) answer computed under a larger budget — and the
// other direction must not let the exhausted run poison the cache either.
TEST(ResultCacheTest, BudgetOptionsAreCacheKeyed) {
  auto lb = SlowDb();
  Service service(lb.get());

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> big, service.OpenSession());
  SessionOptions tiny_options;
  tiny_options.engine_options.exact.max_mappings = 3;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> tiny,
                       service.OpenSession(tiny_options));

  const std::string text = "(x) . P0(x)";
  ASSERT_OK_AND_ASSIGN(Relation answer, big->Query(text));
  (void)answer;

  auto exhausted = tiny->Query(text);
  EXPECT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);

  // And the big session still hits its own entry.
  ASSERT_OK_AND_ASSIGN(Relation again, big->Query(text));
  EXPECT_TRUE(big->last_trace().cached);
  EXPECT_EQ(again, answer);
}

// A statement's answer slots belong to the engine and options fingerprint
// it was prepared under. A handle prepared on a `physical` session still
// runs on an `exact` session's engine, but uncached: the exact session is
// never served the naive answer stored on the statement.
TEST(ResultCacheTest, ForeignHandleRunsUncachedOnTheSessionsEngine) {
  auto lb = MurderDb();
  Service service(lb.get());
  SessionOptions physical_options;
  physical_options.engine = "physical";
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> physical,
                       service.OpenSession(physical_options));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> exact, service.OpenSession());

  ASSERT_OK_AND_ASSIGN(PreparedInfo info,
                       physical->Prepare("(x) . !MURDERER(x)"));
  ASSERT_OK_AND_ASSIGN(Relation naive, physical->Execute(info.handle));
  EXPECT_EQ(naive.size(), 2u);  // {Victoria, Disraeli}: Jack read as fresh

  const ConstId victoria = lb->vocab().FindConstant("Victoria");
  for (int run = 0; run < 2; ++run) {
    ASSERT_OK_AND_ASSIGN(Relation certain, exact->Execute(info.handle));
    EXPECT_FALSE(exact->last_trace().cached) << "run " << run;
    EXPECT_STREQ(exact->last_trace().engine, "exact");
    EXPECT_EQ(certain.size(), 1u);  // {Victoria}
    EXPECT_TRUE(certain.Contains({victoria}));
  }

  ASSERT_OK_AND_ASSIGN(Relation again, physical->Execute(info.handle));
  EXPECT_TRUE(physical->last_trace().cached);
  EXPECT_EQ(again, naive);
}

// Assert interns only names the text format can write back: the query
// lexer's identifier rule (util/parse.h). A rejected update leaves the
// vocabulary and the database version as they were.
TEST(ServiceTest, AssertRejectsNamesTheTextFormatCannotSpell) {
  auto lb = MurderDb();
  Service service(lb.get());
  const size_t constants = lb->num_constants();
  const size_t predicates = lb->vocab().num_predicates();

  for (const std::string& bad : {"a b", "x)y(B", "'a", ""}) {
    EXPECT_EQ(service.Assert("MURDERER", {bad}).code(),
              StatusCode::kInvalidArgument)
        << "constant '" << bad << "'";
  }
  for (const std::string& bad : {"P(", ""}) {
    EXPECT_EQ(service.Assert(bad, {"Victoria"}).code(),
              StatusCode::kInvalidArgument)
        << "predicate '" << bad << "'";
  }
  EXPECT_EQ(lb->num_constants(), constants);
  EXPECT_EQ(lb->vocab().num_predicates(), predicates);
  EXPECT_EQ(service.db_version(), 0u);

  ASSERT_OK(service.Assert("MURDERER", {"Disraeli'"}));
  EXPECT_NE(lb->vocab().FindConstant("Disraeli'"), Vocabulary::kNotFound);
}

// Kernel-memo counters flow from the engines through the trace into the
// service-wide stats. The session forces the memo on: the compiled check
// runs without it by default.
TEST(ServiceTest, MemoCountersSurfaceInStats) {
  auto lb = SlowDb();
  Service service(lb.get());
  SessionOptions options;
  options.engine_options.exact.memo = true;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> session,
                       service.OpenSession(options));
  ASSERT_OK_AND_ASSIGN(Relation answer, session->Query("(x) . P0(x)"));
  (void)answer;
  const KernelMemoCounters& memo = session->last_trace().memo;
  EXPECT_GT(memo.row_hits + memo.row_misses, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.memo_row_hits, memo.row_hits);
  EXPECT_EQ(stats.memo_row_misses, memo.row_misses);
}

// Unless a session sets `ExactOptions::memo`, the sweep picks the kernel
// memo by its per-image check: the compiled check (`exact` on a
// first-order query) runs without it, so neither the trace nor the service
// records memo traffic; the Tarskian check (`batched-exact`) runs with it.
TEST(ServiceTest, DefaultSessionsMemoizeOnlyTheTarskianCheck) {
  EXPECT_FALSE(ExactOptions{}.memo.has_value());
  auto lb = SlowDb();
  Service service(lb.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> compiled,
                       service.OpenSession());
  ASSERT_OK_AND_ASSIGN(Relation answer, compiled->Query("(x) . P0(x)"));
  const ExecutionTrace& trace = compiled->last_trace();
  EXPECT_FALSE(trace.cached);
  EXPECT_GT(trace.mappings_examined, 0u);
  EXPECT_EQ(trace.memo.row_hits + trace.memo.row_misses, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.memo_row_hits + stats.memo_row_misses, 0u);
  EXPECT_EQ(stats.memo_images_skipped, 0u);

  SessionOptions options;
  options.engine = "batched-exact";
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Session> tarskian,
                       service.OpenSession(options));
  ASSERT_OK_AND_ASSIGN(Relation tarskian_answer,
                       tarskian->Query("(x) . P0(x)"));
  EXPECT_EQ(tarskian_answer, answer);
  EXPECT_FALSE(tarskian->last_trace().cached);
  const KernelMemoCounters& memo = tarskian->last_trace().memo;
  EXPECT_GT(memo.row_hits + memo.row_misses, 0u);
}

}  // namespace
}  // namespace lqdb
