// E7 — Ablation: partition canonicalization of the Theorem 1 quantifier.
//
// Theorem 1 quantifies over *all* mappings h : C → C respecting the
// uniqueness axioms — |C|^|C| functions. Since first-/second-order
// satisfaction is isomorphism-invariant, only the kernel partition of h
// matters, so the library enumerates NE-avoiding partitions instead
// (Bell-number many). This bench quantifies the gap and verifies both
// routes return identical answers.
//
// Expected shape: identical answers; the function count dwarfs the
// partition count (and the runtime gap follows) as |C| grows.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/engine/engine.h"
#include "lqdb/exact/brute.h"
#include "lqdb/exact/exact.h"
#include "lqdb/exact/ra_exact.h"
#include "lqdb/util/table.h"

namespace {

using namespace lqdb;
using namespace lqdb::bench;

// Positive query with a nonempty certain answer: candidates survive every
// mapping, so neither evaluator can exit early — the table measures the
// full cost of the Theorem 1 universal quantification.
const char* kQuery = "(x) . P(x)";

std::unique_ptr<CwDatabase> MakeDb(int constants) {
  // Half known, half unknown — partitions and functions both in play.
  auto lb = std::make_unique<CwDatabase>();
  const int unknowns = constants / 2;
  for (int i = 0; i < unknowns; ++i) {
    lb->AddUnknownConstant("U" + std::to_string(i));
  }
  for (int i = 0; i < constants - unknowns; ++i) {
    lb->AddKnownConstant("K" + std::to_string(i));
  }
  PredId p = lb->AddPredicate("P", 1).value();
  (void)lb->AddFact(p, {static_cast<ConstId>(0)});           // P(U0)
  (void)lb->AddFact(p, {static_cast<ConstId>(unknowns)});    // P(K0)
  return lb;
}

void BM_CanonicalPartitions(benchmark::State& state) {
  auto lb = MakeDb(static_cast<int>(state.range(0)));
  Query q = MustParse(lb.get(), kQuery);
  ExactEvaluator exact(lb.get());
  for (auto _ : state) {
    auto answer = exact.Answer(q);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["mappings"] =
      static_cast<double>(exact.last_mappings_examined());
}
BENCHMARK(BM_CanonicalPartitions)->DenseRange(4, 7, 1)
    ->Unit(benchmark::kMillisecond);

/// The pre-batching inner loop, inlined as a baseline: one `SatisfiesWith`
/// per candidate per mapping, each rebuilding a `std::map` binding and
/// re-running the per-call validation — what `Evaluator::SatisfiesBatch`
/// replaced. Same database, query and pruning discipline as
/// `ExactEvaluator::Answer`, so the pair quantifies the batching win on
/// identical work within one JSON snapshot.
Relation PerCandidateAnswer(const CwDatabase& lb, const Query& q) {
  const size_t arity = q.arity();
  std::vector<Tuple> alive =
      AllCandidateTuples(arity, static_cast<ConstId>(lb.num_constants()));
  PhysicalDatabase image(&lb.vocab());
  Evaluator eval(&image);
  ForEachCanonicalMapping(lb, [&](const ConstMapping& h) {
    ApplyMappingInto(lb, h, &image);
    std::vector<Tuple> survivors;
    survivors.reserve(alive.size());
    for (const Tuple& c : alive) {
      std::map<VarId, Value> binding;
      for (size_t i = 0; i < arity; ++i) binding[q.head()[i]] = h[c[i]];
      auto sat = eval.SatisfiesWith(q.body(), binding);
      if (sat.ok() && sat.value()) survivors.push_back(c);
    }
    alive = std::move(survivors);
    return !alive.empty();
  });
  Relation answer(static_cast<int>(arity));
  for (Tuple& t : alive) answer.Insert(std::move(t));
  return answer;
}

void BM_PerCandidateBaseline(benchmark::State& state) {
  auto lb = MakeDb(static_cast<int>(state.range(0)));
  Query q = MustParse(lb.get(), kQuery);
  for (auto _ : state) {
    Relation answer = PerCandidateAnswer(*lb, q);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_PerCandidateBaseline)->DenseRange(4, 7, 1)
    ->Unit(benchmark::kMillisecond);

// The per-image inner loop head-to-head: the batched evaluator
// ("batched-exact") vs the compiled relational-algebra plan ("exact") on
// identical enumeration work. The two rows differ only in their registry
// name, so `tools/collect_bench.py` pairs "…/exact/N" with
// "…/batched-exact/N" within one snapshot and prints the speedup column.
void InnerLoopEngine(benchmark::State& state, const char* engine_name) {
  auto lb = MakeDb(static_cast<int>(state.range(0)));
  Query q = MustParse(lb.get(), kQuery);
  auto engine = EngineRegistry::Global().Create(engine_name, lb.get()).value();
  for (auto _ : state) {
    auto answer = engine->Answer(q);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["mappings"] =
      static_cast<double>(engine->last_mappings_examined());
}
void BM_InnerLoopBatched(benchmark::State& state) {
  InnerLoopEngine(state, "batched-exact");
}
void BM_InnerLoopExact(benchmark::State& state) {
  InnerLoopEngine(state, "exact");
}
BENCHMARK(BM_InnerLoopBatched)->Name("BM_InnerLoop/batched-exact")
    ->DenseRange(4, 7, 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InnerLoopExact)->Name("BM_InnerLoop/exact")
    ->DenseRange(4, 7, 1)->Unit(benchmark::kMillisecond);

void BM_AllFunctions(benchmark::State& state) {
  auto lb = MakeDb(static_cast<int>(state.range(0)));
  Query q = MustParse(lb.get(), kQuery);
  BruteForceEvaluator brute(lb.get());
  for (auto _ : state) {
    auto answer = brute.Answer(q);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["mappings"] =
      static_cast<double>(brute.last_mappings_examined());
}
BENCHMARK(BM_AllFunctions)->DenseRange(4, 6, 1)
    ->Unit(benchmark::kMillisecond);

// The canonical enumeration of the compiled "exact" engine fanned across
// `threads` workers at |C| = 9 (1540 NE-avoiding partitions for this
// half-known shape): arg is the thread count, so the JSON records the
// scaling curve per host. Same query and database shape as
// BM_CanonicalPartitions, two sizes up, since the work-stealing walk
// targets exactly the sizes where the sequential walk starts to hurt.
void BM_ParallelCanonical(benchmark::State& state) {
  auto lb = MakeDb(9);
  Query q = MustParse(lb.get(), kQuery);
  ExactOptions options;
  options.threads = static_cast<int>(state.range(0));
  RaExactEvaluator parallel(lb.get(), options);
  for (auto _ : state) {
    auto answer = parallel.Answer(q);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["mappings"] =
      static_cast<double>(parallel.last_mappings_examined());
  state.counters["threads"] = static_cast<double>(parallel.threads());
}
BENCHMARK(BM_ParallelCanonical)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void PrintSummaryTable() {
  std::printf(
      "\nE7: Theorem 1 mapping enumeration — partitions vs all "
      "functions\n"
      "query: %s\n\n",
      kQuery);
  TablePrinter table({"|C|", "|C|^|C| bound", "respecting fns",
                      "partitions", "canonical(s)", "brute(s)", "equal"});
  for (int constants : {4, 5, 6, 7}) {
    auto lb = MakeDb(constants);
    Query q = MustParse(lb.get(), kQuery);

    ExactEvaluator exact(lb.get());
    Relation canonical(0);
    double canonical_s =
        Seconds([&] { canonical = exact.Answer(q).value(); });

    BruteForceEvaluator brute(lb.get());
    Relation brute_answer(0);
    double brute_s =
        Seconds([&] { brute_answer = brute.Answer(q).value(); });

    double bound = 1;
    for (size_t i = 0; i < lb->num_constants(); ++i) {
      bound *= static_cast<double>(lb->num_constants());
    }
    table.AddRow({std::to_string(lb->num_constants()),
                  FormatDouble(bound, 0),
                  std::to_string(brute.last_mappings_examined()),
                  std::to_string(exact.last_mappings_examined()),
                  FormatDouble(canonical_s, 4), FormatDouble(brute_s, 4),
                  canonical == brute_answer ? "yes" : "NO"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nshape check: identical answers; partition counts stay orders of\n"
      "magnitude below the function counts.\n\n");

  // Thread-scaling table for the exact engine at |C| = 9. On a
  // single-core host the ≥2-thread rows degenerate to ~1x — the JSON
  // records whatever the hardware gives.
  std::printf("E7b: exact engine's canonical enumeration by threads, "
              "|C| = 9\n\n");
  auto lb = MakeDb(9);
  Query q = MustParse(lb.get(), kQuery);
  RaExactEvaluator exact(lb.get());
  Relation sequential_answer(0);
  double sequential_s =
      Seconds([&] { sequential_answer = exact.Answer(q).value(); });
  TablePrinter threads_table(
      {"threads", "partitions", "time(s)", "speedup", "equal"});
  threads_table.AddRow({"1 (sequential)",
                        std::to_string(exact.last_mappings_examined()),
                        FormatDouble(sequential_s, 4), "1.00x", "yes"});
  for (int threads : {1, 2, 4, 8}) {
    ExactOptions options;
    options.threads = threads;
    RaExactEvaluator parallel(lb.get(), options);
    Relation answer(0);
    double t = Seconds([&] { answer = parallel.Answer(q).value(); });
    threads_table.AddRow(
        {std::to_string(threads),
         std::to_string(parallel.last_mappings_examined()),
         FormatDouble(t, 4),
         FormatDouble(t > 0 ? sequential_s / t : 0.0, 2) + "x",
         answer == sequential_answer ? "yes" : "NO"});
  }
  std::printf("%s", threads_table.ToString().c_str());
  std::printf(
      "\nshape check: identical answers at every thread count; speedup\n"
      "approaches the core count on multi-core hosts.\n\n");

  // Batched per-image candidate sweep vs the pre-batching loop (one
  // SatisfiesWith + std::map binding per candidate per mapping).
  std::printf("E7c: batched candidate sweep vs per-candidate loop\n\n");
  TablePrinter batch_table({"|C|", "batched(s)", "per-candidate(s)",
                            "speedup", "equal"});
  for (int constants : {5, 6, 7, 8}) {
    auto batched_lb = MakeDb(constants);
    Query batched_q = MustParse(batched_lb.get(), kQuery);
    ExactEvaluator engine(batched_lb.get());
    Relation batched(0);
    double batched_s = Seconds([&] { batched = engine.Answer(batched_q).value(); });
    Relation legacy(0);
    double legacy_s =
        Seconds([&] { legacy = PerCandidateAnswer(*batched_lb, batched_q); });
    batch_table.AddRow(
        {std::to_string(batched_lb->num_constants()),
         FormatDouble(batched_s, 4), FormatDouble(legacy_s, 4),
         FormatDouble(batched_s > 0 ? legacy_s / batched_s : 0.0, 2) + "x",
         batched == legacy ? "yes" : "NO"});
  }
  std::printf("%s", batch_table.ToString().c_str());
  std::printf(
      "\nshape check: identical answers; batching wins and the gap widens\n"
      "with the candidate count (|C| here, since the query head is unary).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSummaryTable();
  lqdb::bench::RunBenchmarks(argc, argv);
  return 0;
}
