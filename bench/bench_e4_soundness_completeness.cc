// E4 — Theorems 11/12/13: soundness and completeness of the approximation.
//
// Sweeps the fraction of unknown values and measures, over a pool of random
// instances and both positive and non-positive queries:
//   * soundness violations (tuples returned but not certain) — Theorem 11
//     says this must be exactly 0, always;
//   * recall = |A(Q,LB)| / |Q(LB)| — Theorem 12 forces 1.0 at zero
//     unknowns and Theorem 13 forces 1.0 for positive queries; in between,
//     recall may drop below 1 on non-positive queries (the price of
//     polynomial time).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "lqdb/approx/approx.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/classify.h"
#include "lqdb/util/table.h"

namespace {

using namespace lqdb;
using namespace lqdb::bench;

struct Sample {
  size_t exact_size = 0;
  size_t possible_size = 0;
  size_t approx_size = 0;
  size_t violations = 0;
};

Sample Measure(int unknowns, uint64_t seed, const std::string& query_text) {
  auto lb = MakeOrgDatabase(/*known=*/7, unknowns, seed);
  Query q = MustParse(lb.get(), query_text);
  ExactEvaluator exact(lb.get());
  Result<Relation> exact_answer = exact.Answer(q);
  Result<Relation> possible_answer = exact.PossibleAnswer(q);
  auto approx = ApproxEvaluator::Make(lb.get()).value();
  Result<Relation> approx_answer = approx->Answer(q);
  Sample s;
  s.exact_size = exact_answer.value().size();
  s.possible_size = possible_answer.value().size();
  s.approx_size = approx_answer.value().size();
  for (const Tuple& t : approx_answer.value().tuples()) {
    if (!exact_answer.value().Contains(t)) ++s.violations;
  }
  return s;
}

void BM_ApproxOnPool(benchmark::State& state) {
  const int unknowns = static_cast<int>(state.range(0));
  auto lb = MakeOrgDatabase(7, unknowns, /*seed=*/3);
  std::vector<Query> pool;
  for (const std::string& text : OrgQueryPool()) {
    pool.push_back(MustParse(lb.get(), text));
  }
  auto approx = ApproxEvaluator::Make(lb.get()).value();
  for (auto _ : state) {
    for (const Query& q : pool) {
      auto answer = approx->Answer(q);
      benchmark::DoNotOptimize(answer);
    }
  }
}
BENCHMARK(BM_ApproxOnPool)->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMillisecond);

void BM_ExactOnPool(benchmark::State& state) {
  const int unknowns = static_cast<int>(state.range(0));
  auto lb = MakeOrgDatabase(7, unknowns, /*seed=*/3);
  std::vector<Query> pool;
  for (const std::string& text : OrgQueryPool()) {
    pool.push_back(MustParse(lb.get(), text));
  }
  ExactEvaluator exact(lb.get());
  for (auto _ : state) {
    for (const Query& q : pool) {
      auto answer = exact.Answer(q);
      benchmark::DoNotOptimize(answer);
    }
  }
}
BENCHMARK(BM_ExactOnPool)->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMillisecond);

void PrintSummaryTable() {
  std::printf(
      "\nE4: soundness & completeness of the Section 5 approximation\n"
      "instances: 5 random org databases per row; query pool: %zu queries\n"
      "(positive and non-positive)\n\n",
      OrgQueryPool().size());
  TablePrinter table({"unknowns", "query class", "recall",
                      "soundness violations", "certain/possible"});
  for (int unknowns : {0, 1, 2, 3, 4}) {
    size_t exact_pos = 0, approx_pos = 0, viol_pos = 0, poss_pos = 0;
    size_t exact_neg = 0, approx_neg = 0, viol_neg = 0, poss_neg = 0;
    for (uint64_t seed = 0; seed < 5; ++seed) {
      for (const std::string& text : OrgQueryPool()) {
        auto lb = MakeOrgDatabase(7, unknowns, seed);
        Query q = MustParse(lb.get(), text);
        bool positive = IsPositive(q);
        Sample s = Measure(unknowns, seed, text);
        if (positive) {
          exact_pos += s.exact_size;
          approx_pos += s.approx_size;
          viol_pos += s.violations;
          poss_pos += s.possible_size;
        } else {
          exact_neg += s.exact_size;
          approx_neg += s.approx_size;
          viol_neg += s.violations;
          poss_neg += s.possible_size;
        }
      }
    }
    auto recall = [](size_t approx, size_t exact) {
      return exact == 0 ? 1.0
                        : static_cast<double>(approx) /
                              static_cast<double>(exact);
    };
    table.AddRow({std::to_string(unknowns), "positive",
                  FormatDouble(recall(approx_pos, exact_pos), 3),
                  std::to_string(viol_pos),
                  FormatDouble(recall(exact_pos, poss_pos), 3)});
    table.AddRow({std::to_string(unknowns), "non-positive",
                  FormatDouble(recall(approx_neg, exact_neg), 3),
                  std::to_string(viol_neg),
                  FormatDouble(recall(exact_neg, poss_neg), 3)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nshape check: violations are 0 everywhere (Thm 11); recall is "
      "1.000 for\npositive queries at every row (Thm 13) and for all "
      "queries at unknowns = 0\n(Thm 12); non-positive recall may dip "
      "below 1 as unknowns grow. The\n'certain/possible' column shows the "
      "information the nulls withhold: 1.000 at\nunknowns = 0, shrinking "
      "as the model set widens.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSummaryTable();
  lqdb::bench::RunBenchmarks(argc, argv);
  return 0;
}
