// lqdb_e2e: the untraced benchmark run. Prints the end-to-end metrics of
// one workload and, as its last line, the JSON result object.
//
//   lqdb_e2e --workload NAME --seed N --seconds S
#include <cstdio>
#include <optional>

#include "driver.h"
#include "workload.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  const std::optional<Workload> w = ParseArgs(argc, argv, &args);
  if (!w.has_value()) return 2;
  size_t ops_per_cycle = 0;
  for (const Variant& v : w->variants) {
    for (const auto& client : v.clients) ops_per_cycle += client.size();
  }
  std::printf("workload %s seed %llu: %zu worlds, %zu clients, %zu ops per "
              "cycle, service threads %d\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              w->variants.size(), w->variants[0].clients.size(),
              ops_per_cycle, w->service_threads);

  lqdb::Result<Run> run = RunPasses(*w, args.seconds, /*alternate=*/false);
  if (!run.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  // Read before the checker allocates its reference worlds.
  const double peak_rss_mb = PeakRssMb();
  const CheckReport check = CheckAnswers(*w, run->passes);
  const EndToEnd e2e = ComputeEndToEnd(*w, run->passes, run->setup_s,
                                       peak_rss_mb, check.failed);
  PrintMetrics("end-to-end:", e2e.gated);
  PrintMetrics("also reported:", e2e.extra);
  PrintCycles(e2e);
  std::printf("check: %llu ops, %llu failed, %llu mismatches, %llu certain "
              "not within possible, %llu reference executions in %.2f s\n",
              static_cast<unsigned long long>(check.ops),
              static_cast<unsigned long long>(check.failed),
              static_cast<unsigned long long>(check.mismatches),
              static_cast<unsigned long long>(check.subset_violations),
              static_cast<unsigned long long>(check.references),
              check.seconds);
  for (const std::string& e : check.examples) {
    std::printf("  check: %s\n", e.c_str());
  }
  const bool correct = check.failed == 0 && check.subset_violations == 0 &&
                       check.examples.empty();
  PrintResultJson(correct, check.ops, check.failed, e2e.gated);
  return correct ? 0 : 1;
}
