// E1 — Data complexity: LOGSPACE (physical) vs co-NP (logical).
//
// Paper claims reproduced (the E1 row of bench/README.md):
//   * Theorem 4(1): first-order data complexity over *physical* databases
//     is in LOGSPACE — evaluation cost is polynomial in the database and
//     does not depend on how many values are unknown.
//   * Theorem 5(1)+(2): over CW *logical* databases, evaluation is
//     co-NP-complete — the Theorem 1 algorithm enumerates NE-avoiding
//     partitions, exponential in the number of unknown values.
//   * Theorem 14: the §5 approximation tracks the physical cost.
//
// The query is Boolean and *certain*, so the exact evaluator cannot bail
// out early: it pays the full universal quantification over mappings —
// exactly the hidden quantifier the paper blames for the complexity jump.
//
// Expected shape: 'partitions' and the exact column explode with the
// number of unknowns while the physical/approximate columns stay flat.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "lqdb/approx/approx.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/exact.h"
#include "lqdb/util/table.h"

namespace {

using namespace lqdb;
using namespace lqdb::bench;

constexpr int kKnown = 8;
// Certain Boolean sentence: every senior employee sits in some department.
const char* kQuery = "forall x. SENIOR(x) -> (exists d. EMP_DEPT(x, d))";

void BM_ExactEval(benchmark::State& state) {
  const int unknowns = static_cast<int>(state.range(0));
  auto lb = MakeOrgDatabase(kKnown, unknowns, /*seed=*/1);
  Query q = MustParse(lb.get(), kQuery);
  ExactEvaluator exact(lb.get());
  uint64_t mappings = 0;
  for (auto _ : state) {
    auto answer = exact.Contains(q, {});
    benchmark::DoNotOptimize(answer);
    mappings = exact.last_mappings_examined();
  }
  state.counters["mappings"] = static_cast<double>(mappings);
}
BENCHMARK(BM_ExactEval)->DenseRange(0, 4, 1)->Unit(benchmark::kMillisecond);

void BM_ApproxEval(benchmark::State& state) {
  const int unknowns = static_cast<int>(state.range(0));
  auto lb = MakeOrgDatabase(kKnown, unknowns, /*seed=*/1);
  Query q = MustParse(lb.get(), kQuery);
  auto approx = ApproxEvaluator::Make(lb.get()).value();
  for (auto _ : state) {
    auto answer = approx->Answer(q);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_ApproxEval)->DenseRange(0, 4, 1)->Unit(benchmark::kMillisecond);

void BM_PhysicalEval(benchmark::State& state) {
  const int unknowns = static_cast<int>(state.range(0));
  auto lb = MakeOrgDatabase(kKnown, unknowns, /*seed=*/1);
  Query q = MustParse(lb.get(), kQuery);
  PhysicalDatabase ph1 = MakePh1(*lb);
  Evaluator eval(&ph1);
  for (auto _ : state) {
    auto answer = eval.Answer(q);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_PhysicalEval)->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMillisecond);

void PrintSummaryTable() {
  std::printf(
      "\nE1: data complexity of first-order query evaluation\n"
      "query: %s\n"
      "fixed %d known constants; sweeping unknown (null) values\n\n",
      kQuery, kKnown);
  TablePrinter table({"unknowns", "partitions", "exact(s)", "approx(s)",
                      "physical(s)", "exact/physical"});
  for (int u = 0; u <= 5; ++u) {
    auto lb = MakeOrgDatabase(kKnown, u, 1);
    Query q = MustParse(lb.get(), kQuery);
    uint64_t partitions = CountCanonicalMappings(*lb);

    ExactEvaluator exact(lb.get());
    double exact_s = Seconds([&] { (void)exact.Contains(q, {}); });

    auto approx = ApproxEvaluator::Make(lb.get()).value();
    double approx_s = Seconds([&] { (void)approx->Answer(q); });

    PhysicalDatabase ph1 = MakePh1(*lb);
    Evaluator eval(&ph1);
    double physical_s = Seconds([&] { (void)eval.Answer(q); });

    table.AddRow({std::to_string(u), std::to_string(partitions),
                  FormatDouble(exact_s, 4), FormatDouble(approx_s, 4),
                  FormatDouble(physical_s, 4),
                  FormatDouble(exact_s / std::max(physical_s, 1e-9), 1)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nshape check: 'partitions' and 'exact(s)' grow exponentially with\n"
      "unknowns; 'approx(s)' and 'physical(s)' stay flat (Thm 5 vs Thm "
      "14).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSummaryTable();
  lqdb::bench::RunBenchmarks(argc, argv);
  return 0;
}
