// E6 — §5 closing remark: the virtual NE relation.
//
// "In general it is impractical to have NE explicitly contain all pairs of
// values we know are distinct, since then its size could be up to quadratic
// in the number of values in the database." The fix is the virtual view
//
//     NE(x, y) ≡ NE'(x, y) ∨ (¬U(x) ∧ ¬U(y) ∧ ¬(x = y)).
//
// This bench sweeps the database size and compares stored-tuple counts and
// query latency for materialized vs virtual NE.
//
// Expected shape: materialized storage grows quadratically while virtual
// storage grows with |U| + |NE'| only; query times stay comparable.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "lqdb/approx/approx.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/util/table.h"

namespace {

using namespace lqdb;
using namespace lqdb::bench;

// A query whose transform leans on NE: provably-distinct employee pairs in
// the same department.
const char* kQuery =
    "(x, y) . exists d. EMP_DEPT(x, d) & EMP_DEPT(y, d) & x != y";

void BM_VirtualNe(benchmark::State& state) {
  const int known = static_cast<int>(state.range(0));
  auto lb = MakeOrgDatabase(known, /*unknowns=*/2, /*seed=*/9);
  Query q = MustParse(lb.get(), kQuery);
  ApproxOptions options;
  options.materialize_ne = false;
  auto approx = ApproxEvaluator::Make(lb.get(), options).value();
  for (auto _ : state) {
    auto answer = approx->Answer(q);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_VirtualNe)->RangeMultiplier(2)->Range(8, 64)
    ->Unit(benchmark::kMillisecond);

void BM_MaterializedNe(benchmark::State& state) {
  const int known = static_cast<int>(state.range(0));
  auto lb = MakeOrgDatabase(known, /*unknowns=*/2, /*seed=*/9);
  Query q = MustParse(lb.get(), kQuery);
  ApproxOptions options;
  options.materialize_ne = true;
  auto approx = ApproxEvaluator::Make(lb.get(), options).value();
  for (auto _ : state) {
    auto answer = approx->Answer(q);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_MaterializedNe)->RangeMultiplier(2)->Range(8, 64)
    ->Unit(benchmark::kMillisecond);

void BM_MaterializeNeConstruction(benchmark::State& state) {
  const int known = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto lb = MakeOrgDatabase(known, 2, 9);
    state.ResumeTiming();
    Ph2Options options;
    options.materialize_ne = true;
    auto ph2 = MakePh2(*lb, lb->mutable_vocab(), options);
    benchmark::DoNotOptimize(ph2);
  }
}
BENCHMARK(BM_MaterializeNeConstruction)
    ->RangeMultiplier(2)->Range(8, 64)->Unit(benchmark::kMillisecond);

void PrintSummaryTable() {
  std::printf(
      "\nE6: virtual vs materialized NE (Section 5 closing remark)\n"
      "2 unknown values; uniqueness axioms otherwise implicit between all\n"
      "known constants\n\n");
  TablePrinter table({"constants", "NE tuples stored (mat.)",
                      "stored (virtual)", "mat(s)", "virtual(s)",
                      "answers equal"});
  for (int known : {8, 16, 32, 64, 128}) {
    auto lb = MakeOrgDatabase(known, 2, 9);
    Query q = MustParse(lb.get(), kQuery);

    ApproxOptions mat;
    mat.materialize_ne = true;
    auto approx_mat = ApproxEvaluator::Make(lb.get(), mat).value();
    Relation mat_answer(0);
    double mat_s = Seconds([&] {
      mat_answer = approx_mat->Answer(q).value();
    });
    size_t mat_tuples =
        approx_mat->ph2().db.relation(approx_mat->ph2().ne).size();

    ApproxOptions virt;
    virt.materialize_ne = false;
    auto approx_virt = ApproxEvaluator::Make(lb.get(), virt).value();
    Relation virt_answer(0);
    double virt_s = Seconds([&] {
      virt_answer = approx_virt->Answer(q).value();
    });
    size_t virt_tuples = 2 * lb->explicit_distinct().size() +
                         lb->UnknownConstants().size();

    table.AddRow({std::to_string(lb->num_constants()),
                  std::to_string(mat_tuples), std::to_string(virt_tuples),
                  FormatDouble(mat_s, 4), FormatDouble(virt_s, 4),
                  mat_answer == virt_answer ? "yes" : "NO"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nshape check: materialized NE tuples grow ~quadratically with the\n"
      "constants; the virtual representation stores only U and NE'.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSummaryTable();
  lqdb::bench::RunBenchmarks(argc, argv);
  return 0;
}
