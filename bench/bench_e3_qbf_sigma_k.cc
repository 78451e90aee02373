// E3 — Theorem 7: Σₖ combined complexity climbs the polynomial hierarchy.
//
// Evaluating Σₖ first-order queries over CW logical databases is
// Πᵖₖ₊₁-complete: one alternation level is paid to the hidden universal
// quantification over mappings, the rest to the query's own quantifier
// prefix. The reduction from B_{k+1} QBFs is executable; this bench sweeps
// the number of alternation blocks and cross-checks a direct QBF solver.
//
// Expected shape: answers agree on every instance; reduction cost grows
// both with the universal block width (more unknown constants → more
// mappings) and with k (deeper first-order quantifier nesting).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/classify.h"
#include "lqdb/reductions/qbf.h"
#include "lqdb/reductions/qbf_reduction.h"
#include "lqdb/util/table.h"

namespace {

using namespace lqdb;
using namespace lqdb::bench;

std::vector<int> ShapeFor(int k, int width) {
  std::vector<int> blocks(k + 1, width);
  return blocks;
}

void BM_ReductionEval(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  Qbf qbf = RandomQbf(ShapeFor(k, width), 8, /*seed=*/13 * k + width);
  auto built = BuildQbfReduction(qbf);
  auto& red = built.value();
  ExactEvaluator exact(&red.lb);
  for (auto _ : state) {
    auto certain = exact.Contains(red.query, {});
    benchmark::DoNotOptimize(certain);
  }
  state.counters["mappings"] =
      static_cast<double>(exact.last_mappings_examined());
}
BENCHMARK(BM_ReductionEval)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

void BM_DirectQbfSolver(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  Qbf qbf = RandomQbf(ShapeFor(k, width), 8, /*seed=*/13 * k + width);
  for (auto _ : state) {
    bool value = EvalQbf(qbf);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_DirectQbfSolver)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

void PrintSummaryTable() {
  std::printf(
      "\nE3: Sigma_k query evaluation vs the polynomial hierarchy "
      "(Theorem 7)\n"
      "B_{k+1} QBF -> CW database + Sigma_k first-order query\n\n");
  TablePrinter table({"k (Sigma_k)", "block width", "instances", "agree",
                      "true QBFs", "avg logic(s)", "avg solver(s)"});
  for (int k = 0; k <= 2; ++k) {
    for (int width : {2, 3}) {
      int agree = 0, truths = 0;
      const int kInstances = 6;
      double logic_total = 0, solver_total = 0;
      for (int inst = 0; inst < kInstances; ++inst) {
        Qbf qbf = RandomQbf(ShapeFor(k, width), 8,
                            /*seed=*/100 * k + 10 * width + inst);
        auto built = BuildQbfReduction(qbf);
        auto& red = built.value();
        // Sanity: the reduction really produces a Σₖ query.
        if (k > 0 && !InSigmaFoK(red.query.body(), k)) continue;
        ExactEvaluator exact(&red.lb);
        bool by_logic = false;
        logic_total += Seconds([&] {
          by_logic = exact.Contains(red.query, {}).value();
        });
        bool by_solver = false;
        solver_total += Seconds([&] { by_solver = EvalQbf(qbf); });
        if (by_logic == by_solver) ++agree;
        if (by_solver) ++truths;
      }
      table.AddRow({std::to_string(k), std::to_string(width),
                    std::to_string(kInstances),
                    std::to_string(agree) + "/" + std::to_string(kInstances),
                    std::to_string(truths),
                    FormatDouble(logic_total / kInstances, 4),
                    FormatDouble(solver_total / kInstances, 4)});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nshape check: full agreement; logic cost grows with both k and the\n"
      "universal width (the mapping quantification simulates the leading "
      "forall block).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSummaryTable();
  lqdb::bench::RunBenchmarks(argc, argv);
  return 0;
}
