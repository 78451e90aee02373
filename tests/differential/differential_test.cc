/// Differential testing of the three query engines against each other:
///
///   - `BruteForceEvaluator` (exact/brute): the literal Theorem 1 definition,
///     enumerating *every* mapping h : C → C — slow but definitionally
///     correct, so it serves as the oracle;
///   - `ExactEvaluator` (exact/exact): Theorem 1 with canonical-mapping
///     enumeration and the Tarskian per-image check — must agree with brute
///     on every instance, and is the reference the compiled engine
///     (`RaExactEvaluator`, registered as "exact") and the multi-threaded
///     sweeps are compared against;
///   - `ApproxEvaluator` (approx/): the §5 polynomial approximation — must
///     be sound (⊆ exact) always, and complete on fully specified databases
///     (Theorem 12) and positive queries (Theorem 13).
///
/// Every test sweeps seeded random instances from tests/differential/
/// generator.h; any failure prints the reproducing seed plus the serialized
/// database and query, so it can be replayed without recompiling.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lqdb/approx/approx.h"
#include "lqdb/engine/engine.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/exact/brute.h"
#include "lqdb/exact/exact.h"
#include "lqdb/exact/ra_exact.h"
#include "lqdb/logic/classify.h"
#include "lqdb/logic/printer.h"
#include "lqdb/ra/validate.h"
#include "lqdb/relational/relation.h"
#include "lqdb/service/service.h"
#include "tests/differential/generator.h"
#include "tests/testing.h"

namespace lqdb {
namespace {

using testing::Describe;
using testing::DifferentialInstance;
using testing::InstanceProfile;
using testing::MakeInstance;

std::string AnswerDiff(const CwDatabase& db, const char* lhs_name,
                       const Relation& lhs, const char* rhs_name,
                       const Relation& rhs) {
  auto render = [&](const Relation& r) {
    std::string out = "{";
    bool first = true;
    for (const Tuple& t : r.SortedTuples()) {
      if (!first) out += ", ";
      first = false;
      out += "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ", ";
        out += db.vocab().ConstantName(t[i]);
      }
      out += ")";
    }
    return out + "}";
  };
  return std::string(lhs_name) + " = " + render(lhs) + "\n" + rhs_name +
         " = " + render(rhs);
}

/// Exact vs. brute: the canonical-mapping enumeration must compute exactly
/// the same certain answer as the unoptimized all-mappings definition, and
/// the certain answer must be contained in the possible answer.
void CheckBruteVsExact(const DifferentialInstance& instance) {
  SCOPED_TRACE(Describe(instance));
  BruteForceEvaluator brute(instance.db.get());
  ASSERT_OK_AND_ASSIGN(Relation brute_answer, brute.Answer(instance.query));

  ExactEvaluator exact(instance.db.get());
  ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
  EXPECT_EQ(brute_answer, exact_answer)
      << AnswerDiff(*instance.db, "brute", brute_answer, "exact",
                    exact_answer);

  ASSERT_OK_AND_ASSIGN(Relation possible,
                       exact.PossibleAnswer(instance.query));
  EXPECT_TRUE(exact_answer.IsSubsetOf(possible))
      << AnswerDiff(*instance.db, "certain", exact_answer, "possible",
                    possible);
}

TEST(DifferentialTest, BruteAgreesWithExact) {
  const InstanceProfile profiles[] = {InstanceProfile::kTiny,
                                      InstanceProfile::kSmall,
                                      InstanceProfile::kBinary};
  for (InstanceProfile profile : profiles) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      CheckBruteVsExact(MakeInstance(seed, profile));
    }
  }
}

/// Soundness of the approximation (Theorem 11) under every engine
/// configuration, plus cross-configuration agreement: all four configs
/// compute the same mathematical object A(Q, LB) = Q̂(Ph₂(LB)), so their
/// answers must be identical, not merely each sound.
TEST(DifferentialTest, ApproxIsSoundAndConfigurationsAgree) {
  struct Config {
    const char* name;
    AlphaMode alpha;
    ApproxEngine engine;
    bool materialize_ne;
  };
  const Config configs[] = {
      {"virtual/evaluator", AlphaMode::kVirtual, ApproxEngine::kEvaluator,
       false},
      {"virtual/evaluator/materialized-NE", AlphaMode::kVirtual,
       ApproxEngine::kEvaluator, true},
      {"syntactic/evaluator", AlphaMode::kSyntactic, ApproxEngine::kEvaluator,
       true},
      {"virtual/ra", AlphaMode::kVirtual, ApproxEngine::kRelationalAlgebra,
       false},
  };
  const InstanceProfile profiles[] = {InstanceProfile::kSmall,
                                      InstanceProfile::kBinary};
  for (InstanceProfile profile : profiles) {
    for (uint64_t seed = 0; seed < 30; ++seed) {
      // Every config reads the one database: the approximation builds its
      // L′ (NE, α) privately, so configs can share the instance.
      DifferentialInstance instance = MakeInstance(seed, profile);
      SCOPED_TRACE(Describe(instance));
      ExactEvaluator exact(instance.db.get());
      ASSERT_OK_AND_ASSIGN(Relation exact_answer,
                           exact.Answer(instance.query));

      std::vector<Relation> answers;
      for (const Config& config : configs) {
        SCOPED_TRACE(std::string("config: ") + config.name);
        ApproxOptions options;
        options.alpha_mode = config.alpha;
        options.engine = config.engine;
        options.materialize_ne = config.materialize_ne;
        ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                             ApproxEvaluator::Make(instance.db.get(),
                                                   options));
        ASSERT_OK_AND_ASSIGN(Relation approx_answer,
                             approx->Answer(instance.query));

        EXPECT_TRUE(approx_answer.IsSubsetOf(exact_answer))
            << "approximation is unsound\n"
            << AnswerDiff(*instance.db, "approx", approx_answer, "exact",
                          exact_answer);
        if (!answers.empty()) {
          EXPECT_EQ(approx_answer, answers.front())
              << "configs disagree: " << configs[0].name << " vs "
              << config.name << "\n"
              << AnswerDiff(*instance.db, configs[0].name, answers.front(),
                            config.name, approx_answer);
        }
        answers.push_back(std::move(approx_answer));
      }
    }
  }
}

/// Theorem 12: on a fully specified database all three engines coincide.
TEST(DifferentialTest, FullySpecifiedAllEnginesCoincide) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kFullySpecified);
    SCOPED_TRACE(Describe(instance));
    ASSERT_TRUE(instance.db->IsFullySpecified());

    BruteForceEvaluator brute(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation brute_answer, brute.Answer(instance.query));

    ExactEvaluator exact(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
    EXPECT_EQ(brute_answer, exact_answer)
        << AnswerDiff(*instance.db, "brute", brute_answer, "exact",
                      exact_answer);

    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                         ApproxEvaluator::Make(instance.db.get(), {}));
    ASSERT_OK_AND_ASSIGN(Relation approx_answer,
                         approx->Answer(instance.query));
    EXPECT_EQ(approx_answer, exact_answer)
        << "approximation incomplete on a fully specified database\n"
        << AnswerDiff(*instance.db, "approx", approx_answer, "exact",
                      exact_answer);
  }
}

/// Theorem 13: for positive queries the approximation is complete even with
/// unknown constants present.
TEST(DifferentialTest, PositiveQueriesAreComplete) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kPositive);
    SCOPED_TRACE(Describe(instance));
    ASSERT_TRUE(IsPositive(instance.query));

    BruteForceEvaluator brute(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation brute_answer, brute.Answer(instance.query));

    ExactEvaluator exact(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
    EXPECT_EQ(brute_answer, exact_answer)
        << AnswerDiff(*instance.db, "brute", brute_answer, "exact",
                      exact_answer);

    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                         ApproxEvaluator::Make(instance.db.get(), {}));
    ASSERT_OK_AND_ASSIGN(Relation approx_answer,
                         approx->Answer(instance.query));
    EXPECT_EQ(approx_answer, exact_answer)
        << "approximation incomplete on a positive query\n"
        << AnswerDiff(*instance.db, "approx", approx_answer, "exact",
                      exact_answer);
  }
}

/// The multi-threaded agreement dimension: the work-stealing sweep at
/// `threads = 4`, under both per-image checks ("batched-exact" and the
/// compiled "exact", reached through the engine registry the way every
/// other caller gets them), must compute exactly the same certain and
/// possible answers as the sequential `ExactEvaluator` on *every* instance
/// the suite generates — the same 268 (profile, seed) pairs the other
/// dimensions sweep, so a partition-splitting or coordination bug cannot
/// hide in a corner the sequential tests cover but the parallel ones skip.
TEST(DifferentialTest, ParallelExactAgreesOnAllInstances) {
  struct Sweep {
    InstanceProfile profile;
    uint64_t seeds;
  };
  // Mirrors the instance sets of the other tests in this file:
  // 3×40 (brute-vs-exact) + 2×30 (approx configs) + 40 + 40 + 8 = 268.
  const Sweep sweeps[] = {
      {InstanceProfile::kTiny, 40},   {InstanceProfile::kSmall, 40},
      {InstanceProfile::kBinary, 40}, {InstanceProfile::kSmall, 30},
      {InstanceProfile::kBinary, 30}, {InstanceProfile::kFullySpecified, 40},
      {InstanceProfile::kPositive, 40}, {InstanceProfile::kTiny, 8},
  };
  uint64_t instances = 0;
  for (const Sweep& sweep : sweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      ++instances;
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));

      ExactEvaluator exact(instance.db.get());
      ASSERT_OK_AND_ASSIGN(Relation exact_answer,
                           exact.Answer(instance.query));
      ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                           exact.PossibleAnswer(instance.query));

      for (const char* name : {"batched-exact", "exact"}) {
        SCOPED_TRACE(name);
        EngineOptions options;
        options.exact.threads = 4;
        ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryEngine> parallel,
                             EngineRegistry::Global().Create(
                                 name, instance.db.get(), options));
        ASSERT_OK_AND_ASSIGN(Relation parallel_answer,
                             parallel->Answer(instance.query));
        EXPECT_EQ(parallel_answer, exact_answer)
            << AnswerDiff(*instance.db, "parallel", parallel_answer,
                          "sequential", exact_answer);

        ASSERT_OK_AND_ASSIGN(Relation parallel_possible,
                             parallel->PossibleAnswer(instance.query));
        EXPECT_EQ(parallel_possible, exact_possible)
            << AnswerDiff(*instance.db, "parallel", parallel_possible,
                          "sequential", exact_possible);
      }
    }
  }
  EXPECT_EQ(instances, 268u);
}

/// The work-stealing dimension: the skewed profile hangs the whole
/// canonical-mapping mass under one giant kernel-class subtree (the known
/// constants pin a single RGS prefix chain), the adversarial shape for the
/// work-stealing walk. With deliberately tiny steal chunks — lots of
/// remainder donation — the parallel answers of both per-image checks (the
/// Tarskian one at 8 threads, the compiled one at 4) must still be
/// bit-identical to the sequential engine's on every instance.
TEST(DifferentialTest, SkewedProfileParallelAgreesOnAllInstances) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kSkewed);
    SCOPED_TRACE(Describe(instance));

    ExactEvaluator exact(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
    ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                         exact.PossibleAnswer(instance.query));

    ExactOptions options;
    options.threads = 8;
    options.steal_chunk = 8;
    ExactEvaluator tarskian(instance.db.get(), options);
    options.threads = 4;
    RaExactEvaluator compiled(instance.db.get(), options);
    ExactEvaluator* const sweeps[] = {&tarskian, &compiled};
    for (ExactEvaluator* parallel : sweeps) {
      SCOPED_TRACE(parallel == &tarskian ? "tarskian" : "compiled");
      ASSERT_OK_AND_ASSIGN(Relation parallel_answer,
                           parallel->Answer(instance.query));
      EXPECT_EQ(parallel_answer, exact_answer)
          << AnswerDiff(*instance.db, "parallel", parallel_answer,
                        "sequential", exact_answer);
      ASSERT_OK_AND_ASSIGN(Relation parallel_possible,
                           parallel->PossibleAnswer(instance.query));
      EXPECT_EQ(parallel_possible, exact_possible)
          << AnswerDiff(*instance.db, "parallel", parallel_possible,
                        "sequential", exact_possible);
    }
  }
}

/// The compiled-plan dimension: `exact` replaces the per-image batched
/// evaluator with a cached relational-algebra plan (hash joins, anti-joins
/// for negation, shared subplans for `↔`/`→`/`∀`), so the whole compiler +
/// executor stack must reproduce `ExactEvaluator`'s answers bit-for-bit on
/// every instance the suite generates — the same 268 (profile, seed) pairs
/// the other dimensions sweep. The generator emits first-order formulas
/// only, so every instance exercises the compiled path rather than the
/// second-order fallback.
TEST(DifferentialTest, RaExactAgreesOnAllInstances) {
  struct Sweep {
    InstanceProfile profile;
    uint64_t seeds;
  };
  const Sweep sweeps[] = {
      {InstanceProfile::kTiny, 40},   {InstanceProfile::kSmall, 40},
      {InstanceProfile::kBinary, 40}, {InstanceProfile::kSmall, 30},
      {InstanceProfile::kBinary, 30}, {InstanceProfile::kFullySpecified, 40},
      {InstanceProfile::kPositive, 40}, {InstanceProfile::kTiny, 8},
  };
  uint64_t instances = 0;
  for (const Sweep& sweep : sweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      ++instances;
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));

      ExactEvaluator exact(instance.db.get());
      ASSERT_OK_AND_ASSIGN(Relation exact_answer,
                           exact.Answer(instance.query));
      ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                           exact.PossibleAnswer(instance.query));

      ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryEngine> ra,
                           EngineRegistry::Global().Create(
                               "exact", instance.db.get()));
      ASSERT_OK_AND_ASSIGN(Relation ra_answer, ra->Answer(instance.query));
      EXPECT_EQ(ra_answer, exact_answer)
          << AnswerDiff(*instance.db, "exact", ra_answer, "batched-exact",
                        exact_answer);

      ASSERT_OK_AND_ASSIGN(Relation ra_possible,
                           ra->PossibleAnswer(instance.query));
      EXPECT_EQ(ra_possible, exact_possible)
          << AnswerDiff(*instance.db, "exact", ra_possible, "batched-exact",
                        exact_possible);
    }
  }
  EXPECT_EQ(instances, 268u);
}

/// The compiled engine on the skewed profile: the known constants pin a
/// long RGS prefix chain, so the canonical enumeration visits many
/// near-identical images — exactly the case the cached plan is supposed to
/// accelerate without changing a single answer.
TEST(DifferentialTest, SkewedProfileRaExactAgreesOnAllInstances) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kSkewed);
    SCOPED_TRACE(Describe(instance));

    ExactEvaluator exact(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
    ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                         exact.PossibleAnswer(instance.query));

    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<QueryEngine> ra,
        EngineRegistry::Global().Create("exact", instance.db.get()));
    ASSERT_OK_AND_ASSIGN(Relation ra_answer, ra->Answer(instance.query));
    EXPECT_EQ(ra_answer, exact_answer)
        << AnswerDiff(*instance.db, "exact", ra_answer, "batched-exact",
                      exact_answer);
    ASSERT_OK_AND_ASSIGN(Relation ra_possible,
                         ra->PossibleAnswer(instance.query));
    EXPECT_EQ(ra_possible, exact_possible)
        << AnswerDiff(*instance.db, "exact", ra_possible, "batched-exact",
                      exact_possible);
  }
}

/// The compiled engine on the generated large-world profile: an order of
/// magnitude more constants and facts than the toy profiles
/// (lqdb/gen/scenario.h), with a fixed join-heavy query pool — the regime
/// the compiled engine's join-order DP and semijoin reduction actually
/// target, so agreement here covers plan shapes (multi-join chains, binary
/// heads, guarded universals over large relations) the random toy formulas
/// rarely produce. Few unknowns keep the mapping count in the hundreds, so
/// the sweep stays CI-safe under the sanitizers; six seeds cycle through
/// every pool query.
TEST(DifferentialTest, LargeProfileRaExactAgreesOnAllInstances) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kLarge);
    SCOPED_TRACE(Describe(instance));

    ExactEvaluator exact(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
    ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                         exact.PossibleAnswer(instance.query));

    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<QueryEngine> ra,
        EngineRegistry::Global().Create("exact", instance.db.get()));
    ASSERT_OK_AND_ASSIGN(Relation ra_answer, ra->Answer(instance.query));
    EXPECT_EQ(ra_answer, exact_answer)
        << AnswerDiff(*instance.db, "exact", ra_answer, "batched-exact",
                      exact_answer);
    ASSERT_OK_AND_ASSIGN(Relation ra_possible,
                         ra->PossibleAnswer(instance.query));
    EXPECT_EQ(ra_possible, exact_possible)
        << AnswerDiff(*instance.db, "exact", ra_possible, "batched-exact",
                      exact_possible);
  }
}

/// The static-validation dimension: every query of the full differential
/// corpus — the 268-instance pool plus the skewed and large profiles —
/// compiles, exactly as the `exact` engine compiles it
/// (`BoundQuery::CompileRaPlan` with the logical database's statistics and
/// the default join-order cap), to a plan that passes `ValidatePlan` with
/// zero findings, and so does its semijoin-reduced form (validated against
/// the reduction's param node). Debug builds run the same checks inside
/// `CompileRaPlan`; this gate runs them in every build mode, and the gate
/// only helps if the honest compiler output never trips it.
TEST(DifferentialTest, CompiledPlansValidateOnAllInstances) {
  struct Sweep {
    InstanceProfile profile;
    uint64_t seeds;
  };
  const Sweep sweeps[] = {
      {InstanceProfile::kTiny, 40},   {InstanceProfile::kSmall, 40},
      {InstanceProfile::kBinary, 40}, {InstanceProfile::kSmall, 30},
      {InstanceProfile::kBinary, 30}, {InstanceProfile::kFullySpecified, 40},
      {InstanceProfile::kPositive, 40}, {InstanceProfile::kTiny, 8},
      {InstanceProfile::kSkewed, 20}, {InstanceProfile::kLarge, 6},
  };
  uint64_t instances = 0;
  for (const Sweep& sweep : sweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      ++instances;
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));

      const RaCardinalities stats =
          RaCardinalitiesFor(*instance.db, ExactOptions{}.ra_dp_join_cap);
      ASSERT_OK_AND_ASSIGN(BoundQuery bound, BoundQuery::Bind(instance.query));
      ASSERT_OK(bound.CompileRaPlan(instance.db->vocab(), &stats));
      PlanValidateOptions opts;
      opts.vocab = &instance.db->vocab();
      EXPECT_OK(ValidatePlan(bound.ra_plan(), opts));

      opts.param = bound.ra_reduced().param.get();
      EXPECT_OK(ValidatePlan(bound.ra_reduced().plan, opts));
    }
  }
  EXPECT_EQ(instances, 294u);
}

/// The multi-session dimension: K = 8 concurrent service sessions — mixed
/// engines, including the approximation (which runs under the shared lock
/// beside the exact engines) and multi-threaded sweeps — each replaying
/// the same prepared statement through the shared cache, must produce
/// answers bit-identical to a sequential replay of the exact same call
/// sequence on a fresh copy of the instance. Constant ids are
/// deterministic in (seed, profile), so the relations are comparable
/// across instance copies. Runs under TSan in CI, where it also serves as
/// the data-race probe for the service's locking discipline.
TEST(DifferentialTest, ConcurrentSessionsMatchSequentialReplay) {
  struct SessionSpec {
    const char* engine;
    int threads;
  };
  const SessionSpec specs[] = {
      {"exact", 1},         {"batched-exact", 1}, {"exact", 2},
      {"brute", 1},         {"exact", 1},         {"batched-exact", 1},
      {"batched-exact", 2}, {"approx", 1},
  };
  constexpr size_t kSessions = sizeof(specs) / sizeof(specs[0]);
  constexpr int kRounds = 3;

  // One session's Prepare + Execute (async, through the shared pool, in
  // the concurrent phase; synchronous in the replay — same code path
  // underneath, so the answers must not differ).
  auto run_async = [](Session& session, const std::string& text,
                      bool possible) -> Result<Relation> {
    auto info = session.Prepare(text);
    if (!info.ok()) return info.status();
    auto async = session.ExecuteAsync(info->handle, possible);
    if (!async.ok()) return async.status();
    return async->result.get();
  };
  auto run_sync = [](Session& session, const std::string& text,
                     bool possible) -> Result<Relation> {
    auto info = session.Prepare(text);
    if (!info.ok()) return info.status();
    return possible ? session.ExecutePossible(info->handle)
                    : session.Execute(info->handle);
  };
  auto open = [](Service& service, const SessionSpec& spec) {
    SessionOptions options;
    options.engine = spec.engine;
    options.engine_options.exact.threads = spec.threads;
    options.max_in_flight = 2;
    return service.OpenSession(std::move(options)).value();
  };

  const InstanceProfile profiles[] = {InstanceProfile::kTiny,
                                      InstanceProfile::kSmall,
                                      InstanceProfile::kBinary};
  for (InstanceProfile profile : profiles) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      DifferentialInstance instance = MakeInstance(seed, profile);
      SCOPED_TRACE(Describe(instance));
      const std::string text =
          PrintQuery(instance.db->vocab(), instance.query);

      // Concurrent phase: one thread per session against one service.
      std::vector<std::vector<Result<Relation>>> concurrent(kSessions);
      {
        Service service(instance.db.get());
        std::vector<std::shared_ptr<Session>> sessions;
        for (size_t i = 0; i < kSessions; ++i) {
          sessions.push_back(open(service, specs[i]));
        }
        std::vector<std::thread> threads;
        for (size_t i = 0; i < kSessions; ++i) {
          threads.emplace_back([&, i] {
            for (int round = 0; round < kRounds; ++round) {
              concurrent[i].push_back(
                  run_async(*sessions[i], text, /*possible=*/false));
              if (sessions[i]->capabilities().supports_possible) {
                concurrent[i].push_back(
                    run_async(*sessions[i], text, /*possible=*/true));
              }
            }
          });
        }
        for (std::thread& t : threads) t.join();
      }

      // Sequential replay: fresh instance copy, fresh service, the same
      // call sequence one session at a time.
      DifferentialInstance replay = MakeInstance(seed, profile);
      Service service(replay.db.get());
      for (size_t i = 0; i < kSessions; ++i) {
        SCOPED_TRACE(std::string("session ") + std::to_string(i) + " (" +
                     specs[i].engine + ")");
        std::shared_ptr<Session> session = open(service, specs[i]);
        std::vector<Result<Relation>> expected;
        for (int round = 0; round < kRounds; ++round) {
          expected.push_back(run_sync(*session, text, /*possible=*/false));
          if (session->capabilities().supports_possible) {
            expected.push_back(run_sync(*session, text, /*possible=*/true));
          }
        }
        ASSERT_EQ(concurrent[i].size(), expected.size());
        for (size_t j = 0; j < expected.size(); ++j) {
          SCOPED_TRACE(std::string("call ") + std::to_string(j));
          ASSERT_EQ(concurrent[i][j].ok(), expected[j].ok())
              << "concurrent: " << concurrent[i][j].status().ToString()
              << "\nsequential: " << expected[j].status().ToString();
          if (!expected[j].ok()) {
            EXPECT_EQ(concurrent[i][j].status().code(),
                      expected[j].status().code());
            continue;
          }
          EXPECT_EQ(concurrent[i][j].value(), expected[j].value())
              << AnswerDiff(*replay.db, "concurrent",
                            concurrent[i][j].value(), "sequential",
                            expected[j].value());
        }
      }
    }
  }
}

/// The memoization dimension: every engine with the kernel memo forced on
/// (by default only the Tarskian check runs with it) must produce answers
/// bit-identical to the memo-off configuration on every instance the suite
/// generates — the same 268 (profile, seed) pairs the other dimensions
/// sweep. An unsound signature (one that identifies non-isomorphic images)
/// would surface here as a wrong reused verdict; see kernel_memo.h for the
/// counterexample that killed the naive block-size signature. The sweep
/// also asserts the memo actually engaged (hits accumulated somewhere), so
/// the comparison can never silently degenerate into memo-off vs memo-off.
TEST(DifferentialTest, MemoizedAgreesOnAllInstances) {
  struct Sweep {
    InstanceProfile profile;
    uint64_t seeds;
  };
  const Sweep sweeps[] = {
      {InstanceProfile::kTiny, 40},   {InstanceProfile::kSmall, 40},
      {InstanceProfile::kBinary, 40}, {InstanceProfile::kSmall, 30},
      {InstanceProfile::kBinary, 30}, {InstanceProfile::kFullySpecified, 40},
      {InstanceProfile::kPositive, 40}, {InstanceProfile::kTiny, 8},
  };
  EngineOptions memo_engine;
  memo_engine.exact.memo = true;
  uint64_t instances = 0;
  uint64_t total_hits = 0;
  for (const Sweep& sweep : sweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      ++instances;
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));

      ExactOptions off;
      off.memo = false;
      ExactEvaluator baseline(instance.db.get(), off);
      ASSERT_OK_AND_ASSIGN(Relation baseline_answer,
                           baseline.Answer(instance.query));
      ASSERT_OK_AND_ASSIGN(Relation baseline_possible,
                           baseline.PossibleAnswer(instance.query));
      EXPECT_EQ(baseline.last_memo_counters().row_hits, 0u);

      ExactEvaluator memo_exact(instance.db.get(), memo_engine.exact);
      ASSERT_OK_AND_ASSIGN(Relation exact_answer,
                           memo_exact.Answer(instance.query));
      EXPECT_EQ(exact_answer, baseline_answer)
          << AnswerDiff(*instance.db, "memo", exact_answer, "no-memo",
                        baseline_answer);
      total_hits += memo_exact.last_memo_counters().row_hits;
      ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                           memo_exact.PossibleAnswer(instance.query));
      EXPECT_EQ(exact_possible, baseline_possible)
          << AnswerDiff(*instance.db, "memo", exact_possible, "no-memo",
                        baseline_possible);
      total_hits += memo_exact.last_memo_counters().row_hits;

      // Brute enumerates every mapping (not just canonical representatives),
      // so its sweep is exponentially redundant — the memo's best case and
      // the harshest consistency check, since most verdicts are reused.
      ExactOptions brute_off;
      brute_off.memo = false;
      BruteForceEvaluator brute_baseline(instance.db.get(), brute_off);
      ASSERT_OK_AND_ASSIGN(Relation brute_answer,
                           brute_baseline.Answer(instance.query));
      BruteForceEvaluator brute_memo(instance.db.get(), memo_engine.exact);
      ASSERT_OK_AND_ASSIGN(Relation brute_memo_answer,
                           brute_memo.Answer(instance.query));
      EXPECT_EQ(brute_memo_answer, brute_answer)
          << AnswerDiff(*instance.db, "memo", brute_memo_answer, "no-memo",
                        brute_answer);
      total_hits += brute_memo.last_memo_counters().row_hits;

      // The shared-table concurrent path and the compiled-plan path, both
      // memo-on, against the memo-off sequential baseline.
      EngineOptions popts = memo_engine;
      popts.exact.threads = 4;
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryEngine> parallel,
                           EngineRegistry::Global().Create(
                               "batched-exact", instance.db.get(), popts));
      ASSERT_OK_AND_ASSIGN(Relation parallel_answer,
                           parallel->Answer(instance.query));
      EXPECT_EQ(parallel_answer, baseline_answer)
          << AnswerDiff(*instance.db, "parallel-memo", parallel_answer,
                        "no-memo", baseline_answer);

      ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryEngine> ra,
                           EngineRegistry::Global().Create(
                               "exact", instance.db.get(), memo_engine));
      ASSERT_OK_AND_ASSIGN(Relation ra_answer, ra->Answer(instance.query));
      EXPECT_EQ(ra_answer, baseline_answer)
          << AnswerDiff(*instance.db, "ra-memo", ra_answer, "no-memo",
                        baseline_answer);
      total_hits += ra->last_memo_counters().row_hits;
    }
  }
  EXPECT_EQ(instances, 268u);
  EXPECT_GT(total_hits, 0u);
}

/// Memo agreement on the adversarial profiles: kSkewed hangs the mapping
/// mass under one kernel-class subtree (many signature-equivalent
/// mappings — maximal reuse), kLarge runs the generated scenario worlds
/// where an unsound interchangeability class would have room to hide.
/// Brute is excluded: its full mapping space is intractable here. As above,
/// the memo must actually engage somewhere.
TEST(DifferentialTest, MemoizedAgreesOnAdversarialProfiles) {
  struct Sweep {
    InstanceProfile profile;
    uint64_t seeds;
  };
  const Sweep sweeps[] = {
      {InstanceProfile::kSkewed, 20},
      {InstanceProfile::kLarge, 6},
  };
  EngineOptions memo_engine;
  memo_engine.exact.memo = true;
  uint64_t total_hits = 0;
  for (const Sweep& sweep : sweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));

      ExactOptions off;
      off.memo = false;
      ExactEvaluator baseline(instance.db.get(), off);
      ASSERT_OK_AND_ASSIGN(Relation baseline_answer,
                           baseline.Answer(instance.query));

      ExactEvaluator memo_exact(instance.db.get(), memo_engine.exact);
      ASSERT_OK_AND_ASSIGN(Relation exact_answer,
                           memo_exact.Answer(instance.query));
      EXPECT_EQ(exact_answer, baseline_answer)
          << AnswerDiff(*instance.db, "memo", exact_answer, "no-memo",
                        baseline_answer);
      total_hits += memo_exact.last_memo_counters().row_hits;

      ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryEngine> ra,
                           EngineRegistry::Global().Create(
                               "exact", instance.db.get(), memo_engine));
      ASSERT_OK_AND_ASSIGN(Relation ra_answer, ra->Answer(instance.query));
      EXPECT_EQ(ra_answer, baseline_answer)
          << AnswerDiff(*instance.db, "ra-memo", ra_answer, "no-memo",
                        baseline_answer);
      total_hits += ra->last_memo_counters().row_hits;

      if (sweep.profile == InstanceProfile::kSkewed) {
        EngineOptions popts = memo_engine;
        popts.exact.threads = 8;
        ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryEngine> parallel,
                             EngineRegistry::Global().Create(
                                 "batched-exact", instance.db.get(), popts));
        ASSERT_OK_AND_ASSIGN(Relation parallel_answer,
                             parallel->Answer(instance.query));
        EXPECT_EQ(parallel_answer, baseline_answer)
            << AnswerDiff(*instance.db, "parallel-memo", parallel_answer,
                          "no-memo", baseline_answer);
      }
    }
  }
  EXPECT_GT(total_hits, 0u);
}

/// First-principles cross-check on tiny instances: membership according to
/// `ExactEvaluator` must match `ModelEnumerationContains`, which decides
/// `T ⊨_f φ(c)` straight from the §2.1 definition by enumerating every
/// finite interpretation — completely independent of the Theorem 1
/// machinery shared by brute and exact.
TEST(DifferentialTest, ModelEnumerationSpotCheck) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    DifferentialInstance instance = MakeInstance(seed, InstanceProfile::kTiny);
    SCOPED_TRACE(Describe(instance));
    ExactEvaluator exact(instance.db.get());
    const ConstId n = static_cast<ConstId>(instance.db->num_constants());
    for (ConstId c = 0; c < n; ++c) {
      Tuple candidate = {c};
      ASSERT_OK_AND_ASSIGN(bool exact_in,
                           exact.Contains(instance.query, candidate));
      ASSERT_OK_AND_ASSIGN(
          bool model_in,
          ModelEnumerationContains(instance.db.get(), instance.query,
                                   candidate));
      EXPECT_EQ(exact_in, model_in)
          << "candidate " << instance.db->vocab().ConstantName(c)
          << ": exact says " << exact_in << ", model enumeration says "
          << model_in;
    }
  }
}

}  // namespace
}  // namespace lqdb
