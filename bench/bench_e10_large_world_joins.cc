// E10 — Large-world joins: the compiled RA engine vs the batched Tarskian
// sweep where the per-image inner loop actually dominates.
//
// The E8 Theorem 1 rows use toy worlds (9 constants, ~20 facts) where the
// canonical-mapping enumeration is the cost; at that size a compiled plan
// can only about break even with the batched evaluator. E10 generates
// scenario worlds (lqdb/gen/scenario.h) one to two orders of magnitude
// bigger in relational volume — tens of constants, hundreds to thousands
// of facts — while keeping only two unknown constants, so the mapping
// count stays in the thousands and the per-image query evaluation is the
// bottleneck. This is the regime the reused flat hash tables, the
// join-order DP and the semijoin reduction were built for, and the
// in-snapshot table below is the gate for routing the default `exact`
// engine to the compiled path.
//
// Row naming: "BM_LargeWorld/batched-exact/..." vs "BM_LargeWorld/exact/..."
// form a pairable name pair for `tools/collect_bench.py`, each row built
// from the registry entry it is named after. (Snapshots up to BENCH_9 name
// the batched rows ".../exact" and the compiled rows ".../ra-exact".)
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "lqdb/engine/engine.h"
#include "lqdb/gen/scenario.h"
#include "lqdb/util/table.h"

namespace {

using namespace lqdb;
using namespace lqdb::bench;

ScenarioParams ScaleParams(int scale) {
  ScenarioParams p;
  p.num_unknown = 2;
  switch (scale) {
    case 0:  // "large": ~10x the differential toy worlds
      p.num_known = 32;
      p.facts_per_relation = 256;
      break;
    default:  // "xl": ~100x
      p.num_known = 64;
      p.facts_per_relation = 1024;
      break;
  }
  return p;
}

const char* ScaleName(int scale) { return scale == 0 ? "large" : "xl"; }

// The join-heavy subset of the scenario pool: a guarded universal (join +
// anti-join per image), a three-join chain with a binary head, and the
// five-conjunct wide conjunction the join-order DP reorders.
std::vector<std::string> JoinQueries() {
  std::vector<std::string> pool = ScenarioQueryPool(ScenarioParams{});
  return {pool[2], pool[4], pool[5]};
}

void LargeWorldEngine(benchmark::State& state, const char* engine_name) {
  const int scale = static_cast<int>(state.range(0));
  const int query_idx = static_cast<int>(state.range(1));
  const ScenarioParams params = ScaleParams(scale);
  auto lb = MakeScenario(/*seed=*/7, params);
  Query q = MustParse(lb.get(), JoinQueries()[query_idx]);
  auto engine = EngineRegistry::Global().Create(engine_name, lb.get()).value();
  for (auto _ : state) {
    auto answer = engine->Answer(q);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["mappings"] =
      static_cast<double>(engine->last_mappings_examined());
  state.SetLabel(std::string(ScaleName(scale)) + " world, " +
                 JoinQueries()[query_idx]);
}
void BM_LargeWorldBatched(benchmark::State& state) {
  LargeWorldEngine(state, "batched-exact");
}
void BM_LargeWorldExact(benchmark::State& state) {
  LargeWorldEngine(state, "exact");
}
// The binary-head chain sweeps |C|² candidates, so it only runs at the
// large scale — at xl the batched baseline alone takes minutes.
BENCHMARK(BM_LargeWorldBatched)->Name("BM_LargeWorld/batched-exact")
    ->ArgsProduct({{0}, {0, 1, 2}})->ArgsProduct({{1}, {0, 2}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LargeWorldExact)->Name("BM_LargeWorld/exact")
    ->ArgsProduct({{0}, {0, 1, 2}})->ArgsProduct({{1}, {0, 2}})
    ->Unit(benchmark::kMillisecond);

// The in-snapshot comparison table: per (scale, query), both engines'
// certain-answer time, the speedup, and an answer-agreement check — the
// printed evidence behind routing `exact` to the compiled path.
void PrintLargeWorldTable() {
  std::printf(
      "E10: large-world joins — batched Tarskian sweep vs compiled RA\n\n");
  TablePrinter table({"scale", "query", "batched(s)", "ra(s)", "speedup",
                      "answers agree"});
  const std::vector<std::string> queries = JoinQueries();
  for (int scale : {0, 1}) {
    const ScenarioParams params = ScaleParams(scale);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (scale == 1 && qi == 1) continue;  // |C|² candidates: large only
      auto lb = MakeScenario(/*seed=*/7, params);
      Query q = MustParse(lb.get(), queries[qi]);
      auto batched =
          EngineRegistry::Global().Create("batched-exact", lb.get()).value();
      auto ra = EngineRegistry::Global().Create("exact", lb.get()).value();
      Relation batched_answer(0), ra_answer(0);
      double batched_s =
          Seconds([&] { batched_answer = batched->Answer(q).value(); });
      double ra_s = Seconds([&] { ra_answer = ra->Answer(q).value(); });
      table.AddRow({ScaleName(scale), queries[qi],
                    FormatDouble(batched_s, 4), FormatDouble(ra_s, 4),
                    FormatDouble(ra_s > 0 ? batched_s / ra_s : 0.0, 2) + "x",
                    batched_answer == ra_answer ? "yes" : "NO"});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nshape check: identical answers; the ra rows pull ahead as the\n"
      "world grows — the compiled plan pays one join pass per image while\n"
      "the batched sweep pays a quantifier loop per candidate per image.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintLargeWorldTable();
  lqdb::bench::RunBenchmarks(argc, argv);
  return 0;
}
