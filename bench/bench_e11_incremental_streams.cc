// E11 — Incremental re-evaluation: kernel-class verdict memoization and
// the relation-keyed result cache under three client streams.
//
// The streams, each run twice — `/reuse` (kernel memo + result cache on;
// the result cache is a session default, the memo is forced on here
// because the `exact` engine's compiled check runs without it by default)
// against `/baseline` (both off) — on identical scenario worlds
// (src/lqdb/gen/scenario.h), sparse enough that most constants appear in
// no fact (one big interchangeability class, the memo's compression
// source):
//
//   - `repeated`:  the same query pool replayed round after round with no
//     updates in between. Reuse serves every round after the first from
//     the result cache; the claimed floor is 2x.
//   - `perturbed`: a pool of *distinct* query texts (per-constant
//     variants), each executed afresh — the result cache is off for both
//     sides here, so the row isolates the within-query kernel memo:
//     signature-equivalent mappings evaluate once instead of per mapping.
//   - `updates`:   single-fact assert/retract interleaved with the query
//     pool. Only the queries reading the updated relation recompute;
//     the rest keep hitting the result cache, so reuse cost grows with
//     the dependent subset, not the stream length.
//
// Before timing, every stream's reuse and baseline answers are compared
// tuple for tuple on a fresh service pair — a diverging memo is a bug, and
// the bench refuses to produce numbers for it (SkipWithError).
//
// The JSON rows carry `result_hit_rate` / `memo_hit_rate` counters;
// tools/collect_bench.py --require-e11-hits asserts they are nonzero so a
// refactor cannot silently wedge the caches shut and still pass CI.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "lqdb/gen/scenario.h"
#include "lqdb/relational/relation.h"
#include "lqdb/service/service.h"
#include "lqdb/util/table.h"

namespace {

using namespace lqdb;
using namespace lqdb::bench;

constexpr uint64_t kSeed = 29;
// Pool replays per iteration. Even, so the update stream's assert/retract
// toggle is balanced: every iteration ends with the fact retracted and the
// database back in its original state.
constexpr int kRounds = 4;

ScenarioParams SparseParams() {
  ScenarioParams params;
  // Small enough that the exact engine's canonical-mapping sweep (two
  // unknowns over ~33 constants, ~1e3 mappings) stays in the millisecond
  // range per query; sparse enough (8 facts per relation over 32 known
  // constants) that a handful of constants appear in no fact and collapse
  // into one interchangeability class — the kernel memo's compression
  // source.
  params.num_known = 32;
  params.num_unknown = 2;
  params.num_unary = 2;
  params.num_binary = 2;
  params.facts_per_relation = 8;
  params.unknown_ref_rate = 0.15;
  params.distinct_pair_rate = 0.05;
  return params;
}

/// The repeated/updates streams replay the scenario pool; the perturbed
/// stream needs texts that never repeat an earlier cache key, so it takes
/// per-constant variants of the guarded-universal query.
std::vector<std::string> PerturbedPool() {
  std::vector<std::string> pool;
  for (int i = 0; i < 6; ++i) {
    const std::string k = "k" + std::to_string(i);
    pool.push_back("(x) . !(x = " + k + ") & (forall y. R0(x, y) -> P0(y))");
  }
  return pool;
}

std::shared_ptr<Session> OpenStreamSession(Service& service, bool reuse) {
  SessionOptions options;
  options.engine = "exact";
  options.use_result_cache = reuse;
  options.engine_options.exact.memo = reuse;
  return service.OpenSession(std::move(options)).value();
}

/// One assert/retract pair per round on a tuple that is guaranteed absent
/// initially (removed at setup if the generator produced it): the database
/// returns to its original facts after every round.
struct UpdateToggle {
  std::string pred = "R1";
  std::vector<std::string> names = {"k0", "k1"};
};

/// Runs `rounds` replays of `pool` on `session`, toggling a fact between
/// replays when `toggle` is set. Returns false on any execution error.
bool RunStream(Service& service, Session& session,
               const std::vector<std::string>& pool, int rounds,
               const UpdateToggle* toggle) {
  for (int round = 0; round < rounds; ++round) {
    if (toggle != nullptr) {
      const Status status =
          round % 2 == 0 ? service.Assert(toggle->pred, toggle->names)
                         : service.Retract(toggle->pred, toggle->names);
      if (!status.ok()) return false;
    }
    for (const std::string& text : pool) {
      auto answer = session.Query(text);
      if (!answer.ok()) return false;
      benchmark::DoNotOptimize(answer);
    }
  }
  return true;
}

/// Fresh world with the toggled tuple removed, so assert/retract pairs are
/// always well-formed and the stream is deterministic.
std::unique_ptr<CwDatabase> MakeStreamWorld() {
  auto lb = MakeScenario(kSeed, SparseParams());
  const PredId r1 = lb->vocab().FindPredicate("R1");
  const ConstId k0 = lb->vocab().FindConstant("k0");
  const ConstId k1 = lb->vocab().FindConstant("k1");
  Status removed = lb->RemoveFact(r1, Tuple{k0, k1});
  (void)removed;  // NotFound is fine: the tuple just was not generated
  return lb;
}

/// Answer-agreement gate: replays `stream` on two fresh service pairs —
/// reuse and baseline — and compares every answer. `toggle` mirrors the
/// timed stream so the gate covers the exact call sequence being timed.
bool StreamsAgree(const std::vector<std::string>& pool,
                  const UpdateToggle* toggle, std::string* diff) {
  auto reuse_lb = MakeStreamWorld();
  auto base_lb = MakeStreamWorld();
  Service reuse_service(reuse_lb.get(), {/*threads=*/1});
  Service base_service(base_lb.get(), {/*threads=*/1});
  auto reuse_session = OpenStreamSession(reuse_service, true);
  auto base_session = OpenStreamSession(base_service, false);
  for (int round = 0; round < 2 * kRounds; ++round) {
    if (toggle != nullptr) {
      const bool even = round % 2 == 0;
      const Status rs = even
                            ? reuse_service.Assert(toggle->pred, toggle->names)
                            : reuse_service.Retract(toggle->pred,
                                                    toggle->names);
      const Status bs = even
                            ? base_service.Assert(toggle->pred, toggle->names)
                            : base_service.Retract(toggle->pred,
                                                   toggle->names);
      if (!rs.ok() || !bs.ok()) {
        *diff = "update failed: " + rs.ToString() + " / " + bs.ToString();
        return false;
      }
    }
    for (const std::string& text : pool) {
      auto reuse_answer = reuse_session->Query(text);
      auto base_answer = base_session->Query(text);
      if (!reuse_answer.ok() || !base_answer.ok()) {
        *diff = "execution failed on: " + text;
        return false;
      }
      if (!(reuse_answer.value() == base_answer.value())) {
        *diff = "reuse and baseline answers diverge on: " + text;
        return false;
      }
    }
  }
  return true;
}

void ReportCacheCounters(benchmark::State& state, const Service& service) {
  const ServiceStats stats = service.stats();
  const double result_total =
      static_cast<double>(stats.result_hits + stats.result_misses);
  const double memo_total =
      static_cast<double>(stats.memo_row_hits + stats.memo_row_misses);
  state.counters["result_hit_rate"] =
      result_total > 0 ? static_cast<double>(stats.result_hits) / result_total
                       : 0.0;
  state.counters["memo_hit_rate"] =
      memo_total > 0 ? static_cast<double>(stats.memo_row_hits) / memo_total
                     : 0.0;
  state.counters["invalidations"] =
      static_cast<double>(stats.result_invalidations);
}

void StreamBench(benchmark::State& state, const std::vector<std::string>& pool,
                 bool reuse, bool with_updates) {
  const UpdateToggle toggle;
  const UpdateToggle* toggle_ptr = with_updates ? &toggle : nullptr;
  std::string diff;
  if (!StreamsAgree(pool, toggle_ptr, &diff)) {
    state.SkipWithError(diff.c_str());
    return;
  }
  auto lb = MakeStreamWorld();
  Service service(lb.get(), {/*threads=*/1});
  auto session = OpenStreamSession(service, reuse);
  // Warm the prepared-statement cache so both sides time execution, not
  // parsing.
  for (const std::string& text : pool) {
    auto info = session->Prepare(text);
    benchmark::DoNotOptimize(info);
  }
  for (auto _ : state) {
    if (!RunStream(service, *session, pool, kRounds, toggle_ptr)) {
      state.SkipWithError("stream execution failed");
      return;
    }
  }
  ReportCacheCounters(state, service);
  state.SetLabel(reuse ? "memo+result-cache" : "no reuse");
}

void BM_Repeated(benchmark::State& state, bool reuse) {
  StreamBench(state, ScenarioQueryPool(SparseParams()), reuse,
              /*with_updates=*/false);
}

// Perturbed: distinct texts, result cache off for BOTH sides (the pool
// repeats across benchmark iterations, and a cross-iteration result hit
// would turn this row back into `repeated`) — reuse here is the kernel
// memo alone.
void BM_Perturbed(benchmark::State& state, bool memo) {
  const std::vector<std::string> pool = PerturbedPool();
  std::string diff;
  if (!StreamsAgree(pool, nullptr, &diff)) {
    state.SkipWithError(diff.c_str());
    return;
  }
  auto lb = MakeStreamWorld();
  Service service(lb.get(), {/*threads=*/1});
  SessionOptions options;
  options.engine = "exact";
  options.use_result_cache = false;
  options.engine_options.exact.memo = memo;
  auto session = service.OpenSession(std::move(options)).value();
  for (const std::string& text : pool) {
    auto info = session->Prepare(text);
    benchmark::DoNotOptimize(info);
  }
  for (auto _ : state) {
    for (const std::string& text : pool) {
      auto answer = session->Query(text);
      if (!answer.ok()) {
        state.SkipWithError("stream execution failed");
        return;
      }
      benchmark::DoNotOptimize(answer);
    }
  }
  ReportCacheCounters(state, service);
  state.SetLabel(memo ? "kernel memo" : "no reuse");
}

void BM_Updates(benchmark::State& state, bool reuse) {
  StreamBench(state, ScenarioQueryPool(SparseParams()), reuse,
              /*with_updates=*/true);
}

BENCHMARK_CAPTURE(BM_Repeated, baseline, false)
    ->Name("BM_IncrementalStream/repeated/baseline")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Repeated, reuse, true)
    ->Name("BM_IncrementalStream/repeated/reuse")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Perturbed, baseline, false)
    ->Name("BM_IncrementalStream/perturbed/baseline")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Perturbed, reuse, true)
    ->Name("BM_IncrementalStream/perturbed/reuse")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Updates, baseline, false)
    ->Name("BM_IncrementalStream/updates/baseline")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Updates, reuse, true)
    ->Name("BM_IncrementalStream/updates/reuse")
    ->Unit(benchmark::kMillisecond);

/// One-shot wall-clock comparison of the three streams, printed before the
/// benchmark rows (the e9 model): reuse vs baseline seconds, the speedup,
/// and whether the two sides' answers agreed tuple for tuple.
void PrintStreamTable() {
  const ScenarioParams params = SparseParams();
  std::printf(
      "E11: incremental re-evaluation — kernel memo + result cache\n"
      "scenario world: %d known constants (%d facts/relation: most appear "
      "in no fact), %d unknown; %d+%d relations\n\n",
      params.num_known, params.facts_per_relation, params.num_unknown,
      params.num_unary, params.num_binary);
  struct Row {
    const char* stream;
    std::vector<std::string> pool;
    bool result_cache;
    bool updates;
  };
  const std::vector<Row> rows = {
      {"repeated", ScenarioQueryPool(params), true, false},
      {"perturbed", PerturbedPool(), false, false},
      {"updates", ScenarioQueryPool(params), true, true},
  };
  TablePrinter table({"stream", "baseline(s)", "reuse(s)", "speedup",
                      "answers agree"});
  for (const Row& row : rows) {
    const UpdateToggle toggle;
    const UpdateToggle* toggle_ptr = row.updates ? &toggle : nullptr;
    std::string diff;
    const bool agree = StreamsAgree(row.pool, toggle_ptr, &diff);
    double side_s[2] = {0, 0};
    for (int reuse = 0; reuse < 2; ++reuse) {
      auto lb = MakeStreamWorld();
      Service service(lb.get(), {/*threads=*/1});
      SessionOptions options;
      options.engine = "exact";
      options.use_result_cache = row.result_cache && reuse == 1;
      options.engine_options.exact.memo = reuse == 1;
      auto session = service.OpenSession(std::move(options)).value();
      for (const std::string& text : row.pool) {
        auto info = session->Prepare(text);
        benchmark::DoNotOptimize(info);
      }
      side_s[reuse] = Seconds([&] {
        if (!RunStream(service, *session, row.pool, 2 * kRounds,
                       toggle_ptr)) {
          std::fprintf(stderr, "E11 %s stream failed\n", row.stream);
        }
      });
    }
    table.AddRow({row.stream, FormatDouble(side_s[0], 4),
                  FormatDouble(side_s[1], 4),
                  FormatDouble(side_s[1] > 0 ? side_s[0] / side_s[1] : 0.0,
                               2) +
                      "x",
                  agree ? "yes" : "NO"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nshape check: the repeated stream should be >= 2x (result-cache\n"
      "hits after round one); perturbed isolates the kernel memo (result\n"
      "cache off on both sides); updates stays ahead of baseline because\n"
      "only queries reading the updated relation recompute.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintStreamTable();
  lqdb::bench::RunBenchmarks(argc, argv);
  return 0;
}
