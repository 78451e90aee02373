/// The Theorem 1 sweep at `ExactOptions::threads` ≠ 1 (the work-stealing
/// walk): determinism across thread counts, agreement with the in-order
/// walk, global `max_mappings` accounting, and validity of reported
/// counterexamples/witnesses (which may legitimately differ between runs —
/// only the *answers* are deterministic). Run against the Tarskian
/// `ExactEvaluator`; the differential suite covers the compiled check.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lqdb/cwdb/mapping.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/parser.h"
#include "tests/testing.h"

namespace lqdb {
namespace {

using testing::RandomCwDatabase;
using testing::RandomDbParams;
using testing::RandomFormulaParams;
using testing::RandomQuery;

ExactOptions WithThreads(int threads) {
  ExactOptions options;
  options.threads = threads;
  return options;
}

TEST(ParallelExactTest, AnswersIdenticalAcross1And2And8Threads) {
  RandomDbParams db_params;
  RandomFormulaParams q_params;
  q_params.free_vars = {"hx"};
  for (uint64_t seed = 0; seed < 12; ++seed) {
    auto lb = RandomCwDatabase(seed, db_params);
    Query query = RandomQuery(seed * 31 + 7, lb->mutable_vocab(), q_params);
    SCOPED_TRACE("seed=" + std::to_string(seed));

    ExactEvaluator sequential(lb.get());
    auto expected = sequential.Answer(query);
    auto expected_possible = sequential.PossibleAnswer(query);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(expected_possible.ok()) << expected_possible.status();

    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExactEvaluator parallel(lb.get(), WithThreads(threads));
      EXPECT_EQ(parallel.threads(), threads);

      auto answer = parallel.Answer(query);
      ASSERT_TRUE(answer.ok()) << answer.status();
      EXPECT_EQ(answer.value(), expected.value());

      auto possible = parallel.PossibleAnswer(query);
      ASSERT_TRUE(possible.ok()) << possible.status();
      EXPECT_EQ(possible.value(), expected_possible.value());

      // The engine always examines at least one mapping (the space is
      // nonempty); exact counts are compared by FullSweepCountsMatchSequential
      // since early exit makes them scheduling-dependent here.
      EXPECT_GE(parallel.last_mappings_examined(), uint64_t{1});
    }
  }
}

TEST(ParallelExactTest, ContainsAgreesWithSequentialPerCandidate) {
  RandomDbParams db_params;
  db_params.num_facts = 5;
  RandomFormulaParams q_params;
  q_params.free_vars = {"hx"};
  for (uint64_t seed = 20; seed < 26; ++seed) {
    auto lb = RandomCwDatabase(seed, db_params);
    Query query = RandomQuery(seed * 13 + 3, lb->mutable_vocab(), q_params);
    SCOPED_TRACE("seed=" + std::to_string(seed));

    ExactEvaluator sequential(lb.get());
    ExactEvaluator parallel(lb.get(), WithThreads(4));
    const ConstId n = static_cast<ConstId>(lb->num_constants());
    for (ConstId c = 0; c < n; ++c) {
      Tuple candidate = {c};
      auto expected = sequential.Contains(query, candidate);
      auto actual = parallel.Contains(query, candidate);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(actual.ok()) << actual.status();
      EXPECT_EQ(actual.value(), expected.value())
          << "candidate " << lb->vocab().ConstantName(c);

      auto expected_poss = sequential.IsPossible(query, candidate);
      auto actual_poss = parallel.IsPossible(query, candidate);
      ASSERT_TRUE(expected_poss.ok()) << expected_poss.status();
      ASSERT_TRUE(actual_poss.ok()) << actual_poss.status();
      EXPECT_EQ(actual_poss.value(), expected_poss.value());
    }
  }
}

TEST(ParallelExactTest, CounterexamplesAreGenuine) {
  // Which counterexample the work-stealing walk reports is scheduling
  // dependent, so do not compare mappings — *verify* them: the reported h
  // must respect the axioms and falsify the query on its image database.
  auto lb = std::make_unique<CwDatabase>();
  lb->AddUnknownConstant("Jack");
  lb->AddKnownConstant("Victoria");
  lb->AddKnownConstant("Disraeli");
  ASSERT_OK(lb->AddFact("MURDERER", {"Jack"}));
  ASSERT_OK(lb->AddDistinct("Jack", "Victoria"));
  auto query = ParseQuery(lb->mutable_vocab(), "(x) . !MURDERER(x)");
  ASSERT_TRUE(query.ok()) << query.status();

  ExactEvaluator parallel(lb.get(), WithThreads(4));
  // Disraeli is not provably innocent: the mapping sending Jack to
  // Disraeli falsifies !MURDERER(Disraeli).
  std::optional<Counterexample> counterexample;
  auto contained = parallel.Contains(query.value(), {1}, &counterexample);
  ASSERT_TRUE(contained.ok()) << contained.status();
  EXPECT_TRUE(contained.value());  // Victoria (id 1) is innocent

  auto disraeli = parallel.Contains(query.value(), {2}, &counterexample);
  ASSERT_TRUE(disraeli.ok()) << disraeli.status();
  EXPECT_FALSE(disraeli.value());
  ASSERT_TRUE(counterexample.has_value());
  EXPECT_TRUE(RespectsUniqueness(*lb, counterexample->h));
  {
    PhysicalDatabase image = ApplyMapping(*lb, counterexample->h);
    Evaluator eval(&image);
    std::map<VarId, Value> binding;
    binding[query.value().head()[0]] = counterexample->h[2];
    auto sat = eval.SatisfiesWith(query.value().body(), binding);
    ASSERT_TRUE(sat.ok()) << sat.status();
    EXPECT_FALSE(sat.value()) << "reported counterexample does not falsify";
  }

  // Witness path: Disraeli is possibly innocent — the witness model must
  // actually satisfy !MURDERER(h(Disraeli)).
  std::optional<Counterexample> witness;
  auto possible = parallel.IsPossible(query.value(), {2}, &witness);
  ASSERT_TRUE(possible.ok()) << possible.status();
  EXPECT_TRUE(possible.value());
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(RespectsUniqueness(*lb, witness->h));
  {
    PhysicalDatabase image = ApplyMapping(*lb, witness->h);
    Evaluator eval(&image);
    std::map<VarId, Value> binding;
    binding[query.value().head()[0]] = witness->h[2];
    auto sat = eval.SatisfiesWith(query.value().body(), binding);
    ASSERT_TRUE(sat.ok()) << sat.status();
    EXPECT_TRUE(sat.value()) << "reported witness does not satisfy";
  }

  // Jack is the murderer in *every* model, so his innocence is not even
  // possible.
  auto jack = parallel.IsPossible(query.value(), {0}, &witness);
  ASSERT_TRUE(jack.ok()) << jack.status();
  EXPECT_FALSE(jack.value());
  EXPECT_FALSE(witness.has_value());
}

TEST(ParallelExactTest, MaxMappingsIsAccountedGlobally) {
  // 6 unknown constants — 203 canonical mappings. A budget of 10 must trip
  // ResourceExhausted no matter how the ranges land on workers.
  auto lb = std::make_unique<CwDatabase>();
  for (int i = 0; i < 6; ++i) {
    lb->AddUnknownConstant("U" + std::to_string(i));
  }
  PredId p = lb->AddPredicate("P", 1).value();
  ASSERT_OK(lb->AddFact(p, {0}));
  auto query = ParseQuery(lb->mutable_vocab(), "(x) . P(x)");
  ASSERT_TRUE(query.ok()) << query.status();

  ExactOptions options = WithThreads(4);
  options.max_mappings = 10;
  ExactEvaluator parallel(lb.get(), options);
  auto answer = parallel.Answer(query.value());
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted)
      << answer.status();

  // A sufficient budget succeeds and counts the full space.
  options.max_mappings = 1000;
  ExactEvaluator roomy(lb.get(), options);
  auto ok_answer = roomy.Answer(query.value());
  ASSERT_TRUE(ok_answer.ok()) << ok_answer.status();
}

TEST(ParallelExactTest, ZeroThreadsMeansHardwareConcurrency) {
  auto lb = std::make_unique<CwDatabase>();
  lb->AddUnknownConstant("U0");
  ExactEvaluator parallel(lb.get(), WithThreads(0));
  EXPECT_GE(parallel.threads(), 1);
}

TEST(ParallelExactTest, WorkStealingSpreadsASkewedSpaceAcrossAllWorkers) {
  // Three known constants pin a single RGS prefix chain (their blocks are
  // forced pairwise-distinct), so the entire ~60k-partition Bell mass of
  // the seven unknowns hangs under one giant kernel-class subtree — the
  // shape that starved a fixed-range scheduler. A tautological query keeps
  // every candidate alive, so there is no early exit: the full space must
  // be walked, and chunk donation must hand every worker work.
  auto lb = std::make_unique<CwDatabase>();
  for (int i = 0; i < 3; ++i) {
    lb->AddKnownConstant("K" + std::to_string(i));
  }
  for (int i = 0; i < 7; ++i) {
    lb->AddUnknownConstant("U" + std::to_string(i));
  }
  auto query = ParseQuery(lb->mutable_vocab(), "(x) . x = x");
  ASSERT_TRUE(query.ok()) << query.status();

  ExactEvaluator sequential(lb.get());
  auto expected = sequential.Answer(query.value());
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected.value().size(), 10u);

  ExactOptions options = WithThreads(8);
  options.steal_chunk = 16;
  ExactEvaluator parallel(lb.get(), options);

  // Every attempt must compute the exact answer over the exact mapping
  // count; whether all 8 workers retire a range additionally depends on the
  // OS giving each thread a timeslice while the queue is nonempty, so an
  // oversubscribed CPU gets a few attempts before it counts as a
  // scheduler bug.
  bool balanced = false;
  for (int attempt = 0; attempt < 10 && !balanced; ++attempt) {
    auto answer = parallel.Answer(query.value());
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(answer.value(), expected.value());
    EXPECT_EQ(parallel.last_mappings_examined(),
              sequential.last_mappings_examined());

    const std::vector<uint64_t>& per_worker = parallel.last_worker_ranges();
    ASSERT_EQ(per_worker.size(), 8u);
    uint64_t total_ranges = 0;
    balanced = true;
    for (uint64_t retired : per_worker) {
      if (retired == 0) balanced = false;
      total_ranges += retired;
    }
    // The sweep is far larger than one chunk, so stealing must have split
    // it into many donated ranges regardless of thread scheduling.
    EXPECT_GT(total_ranges, 8u);
  }
  EXPECT_TRUE(balanced) << "some worker never retired a range in 10 sweeps";
}

TEST(ParallelExactTest, FullSweepCountsMatchSequential) {
  // A positive query with a nonempty answer never early-exits, so the
  // sweep must examine *exactly* the canonical-mapping count.
  auto lb = std::make_unique<CwDatabase>();
  for (int i = 0; i < 5; ++i) {
    lb->AddUnknownConstant("U" + std::to_string(i));
  }
  PredId p = lb->AddPredicate("P", 1).value();
  for (ConstId c = 0; c < 5; ++c) {
    ASSERT_OK(lb->AddFact(p, {c}));  // P holds everywhere: nothing dies
  }
  auto query = ParseQuery(lb->mutable_vocab(), "(x) . P(x)");
  ASSERT_TRUE(query.ok()) << query.status();

  const uint64_t space = CountCanonicalMappings(*lb);  // B(5) = 52
  ASSERT_EQ(space, 52u);
  for (int threads : {1, 2, 8}) {
    ExactEvaluator parallel(lb.get(), WithThreads(threads));
    auto answer = parallel.Answer(query.value());
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(answer.value().size(), 5u);
    EXPECT_EQ(parallel.last_mappings_examined(), space)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace lqdb
