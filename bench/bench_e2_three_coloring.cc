// E2 — Theorem 5(2): graph 3-colorability as CW query evaluation.
//
// The co-NP-hardness reduction is executable: a graph maps (in logspace)
// to a logical database plus a fixed Boolean query whose *non*-certainty
// is 3-colorability. This bench runs the reduction against a direct
// backtracking solver on a graph family sweep.
//
// Expected shape: answers agree on every instance; the logical route pays
// the mapping-enumeration premium, growing with vertex count — and pays
// the most on non-3-colorable instances, where no early counterexample
// exists (the co-NP "all mappings" worst case).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "lqdb/exact/exact.h"
#include "lqdb/reductions/coloring.h"
#include "lqdb/reductions/graph.h"
#include "lqdb/util/table.h"

namespace {

using namespace lqdb;
using namespace lqdb::bench;

Graph MakeGraph(int family, int n) {
  switch (family) {
    case 0: return CycleGraph(n);
    case 1: return CompleteGraph(n);
    default: return RandomGraph(n, 0.5, 7 + n);
  }
}

const char* FamilyName(int family) {
  switch (family) {
    case 0: return "cycle";
    case 1: return "complete";
    default: return "G(n,1/2)";
  }
}

void BM_ReductionDecides(benchmark::State& state) {
  Graph g = MakeGraph(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  auto built = BuildColoringReduction(g);
  auto& red = built.value();
  ExactEvaluator exact(&red.lb);
  bool colorable = false;
  for (auto _ : state) {
    auto certain = exact.Contains(red.query, {});
    colorable = !certain.value();
    benchmark::DoNotOptimize(certain);
  }
  state.counters["colorable"] = colorable ? 1 : 0;
  state.counters["mappings"] =
      static_cast<double>(exact.last_mappings_examined());
}
BENCHMARK(BM_ReductionDecides)
    ->ArgsProduct({{0}, {4, 5, 6, 7, 8, 9}})
    ->ArgsProduct({{1}, {3, 4}})
    ->ArgsProduct({{2}, {4, 5, 6}})
    ->Unit(benchmark::kMillisecond);

void BM_DirectSolver(benchmark::State& state) {
  Graph g = MakeGraph(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  for (auto _ : state) {
    bool colorable = IsKColorable(g, 3);
    benchmark::DoNotOptimize(colorable);
  }
}
BENCHMARK(BM_DirectSolver)
    ->ArgsProduct({{0}, {4, 5, 6, 7, 8, 9}})
    ->ArgsProduct({{1}, {3, 4}})
    ->ArgsProduct({{2}, {4, 5, 6}})
    ->Unit(benchmark::kMillisecond);

void PrintSummaryTable() {
  std::printf(
      "\nE2: 3-colorability via the Theorem 5(2) reduction\n"
      "query: () . (forall y. M(y)) -> exists z. R(z, z)\n\n");
  TablePrinter table({"graph", "n", "edges", "reduction", "solver", "agree",
                      "mappings", "logic(s)", "solver(s)"});
  struct Row {
    int family;
    int n;
  };
  const Row rows[] = {{0, 4}, {0, 5}, {0, 7}, {0, 9}, {1, 3}, {1, 4},
                      {2, 4}, {2, 5}, {2, 6}, {2, 7}};
  for (const Row& row : rows) {
    Graph g = MakeGraph(row.family, row.n);
    auto built = BuildColoringReduction(g);
    auto& red = built.value();
    ExactEvaluator exact(&red.lb);
    bool by_logic = false;
    double logic_s = Seconds([&] {
      by_logic = !exact.Contains(red.query, {}).value();
    });
    bool by_solver = false;
    double solver_s = Seconds([&] { by_solver = IsKColorable(g, 3); });
    table.AddRow({FamilyName(row.family), std::to_string(row.n),
                  std::to_string(g.num_edges()),
                  by_logic ? "3-colorable" : "NOT 3-colorable",
                  by_solver ? "3-colorable" : "NOT 3-colorable",
                  by_logic == by_solver ? "yes" : "NO",
                  std::to_string(exact.last_mappings_examined()),
                  FormatDouble(logic_s, 4), FormatDouble(solver_s, 4)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nshape check: 'agree' is yes everywhere; non-colorable rows"
              " (K4, dense random)\nexamine every mapping — the co-NP worst"
              " case.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSummaryTable();
  lqdb::bench::RunBenchmarks(argc, argv);
  return 0;
}
