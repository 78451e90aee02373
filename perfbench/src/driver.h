// Drives a workload through the public service API as closed-loop clients,
// checks every answer against independently computed references, and
// turns the recorded ops into the end-to-end metrics. Shared by the
// untraced (lqdb_e2e) and traced (lqdb_trace) targets; it includes only
// the library's public service and text-format headers.
#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lqdb/io/text_format.h"
#include "lqdb/service/service.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide origin.
int64_t NowNs();

/// Identifies an op within a workload: world × 1e7 + client × 1e6 + the
/// op's index in its client's sequence.
int64_t OpId(size_t variant, size_t client, size_t index);

/// One recorded span of a traced pass: a client op (root) or one of the
/// service calls it made (children). Spans live in memory until exit.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span in the same list; -1 for a root.
  int64_t parent = -1;
  /// Op id (`OpId`).
  int64_t op = 0;
  /// Calls folded into this span (per-mapping layer calls are aggregated)
  /// and their summed time; 0 means `end_ns - start_ns`.
  uint64_t count = 1;
  int64_t busy_ns = 0;
};

/// What one client op did.
struct OpResult {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Query ops: `Prepare`, then execution (sync call or async + get).
  /// Update ops: the `Assert`/`Retract` call, in `execute_ns`.
  int64_t prepare_ns = 0;
  int64_t execute_ns = 0;
  /// Read-your-write sample closed by this op; < 0 when none.
  double fresh_ms = -1;
  bool ok = true;
  std::string error;
  uint64_t answer_hash = 0;
  /// Bitmask of owned facts present as the op ended: this client's own bit
  /// is exact; the other clients' bits are as last published.
  uint32_t state = 0;
  /// The bits of `state` the answer must reflect: this client's own, and
  /// each other client's that wrote nothing while the op ran. The answer
  /// may reflect either value of the other bits.
  uint32_t settled = 0;
  bool prepare_hit = false;
  /// From the session's `ExecutionTrace` after the op.
  bool result_hit = false;
  uint64_t mappings = 0;
  lqdb::KernelMemoCounters memo;
};

struct PassResult {
  /// Index into `Workload::variants`.
  size_t variant = 0;
  bool traced = false;
  double setup_s = 0;
  /// `ParseCwDatabase` share of the set-up.
  double load_ms = 0;
  double timed_s = 0;
  /// Parallel to the variant's `clients`.
  std::vector<std::vector<OpResult>> ops;
  /// Traced passes only: per client, in start order.
  std::vector<std::vector<Span>> spans;
  /// Service counters at the end of the pass (result-cache invalidation
  /// is lazy: a stale entry counts when a lookup drops it).
  lqdb::ServiceStats stats;
};

/// A measured run: its passes and its set-up samples (one per pass plus
/// stand-alone set-ups, so that the reported median rests on several).
struct Run {
  std::vector<PassResult> passes;
  std::vector<double> setup_s;
};

/// Runs whole cycles until their timed phases add up to `seconds`, so
/// every run replays the same op sequence some whole number of times. A
/// cycle is one pass per variant; a pass is a fresh set-up (parse,
/// service, sessions, first engine use, the prepared pool and one warm
/// pass over it), then every client's whole op sequence, timed from a
/// common start until the last client finishes. Cycles are all untraced,
/// or (`alternate`) untraced and traced in turn, at least one of each, so
/// that host drift falls on both sides of the tracing-overhead difference.
lqdb::Result<Run> RunPasses(const Workload& w, double seconds,
                            bool alternate);

/// Answer check over every op of `passes`. References come from a fresh
/// service per database state, with the result cache and the kernel memo
/// off; an op passes when its answer equals the reference of some state it
/// may legally reflect: its own writes applied, and each other client's
/// fact as published unless that client wrote while the op ran
/// (`OpResult::settled`).
struct CheckReport {
  uint64_t ops = 0;
  uint64_t failed = 0;            // non-OK statuses plus mismatches
  uint64_t mismatches = 0;
  uint64_t subset_violations = 0;  // certain ⊄ possible
  uint64_t references = 0;
  double seconds = 0;
  std::vector<std::string> examples;
};
CheckReport CheckAnswers(const Workload& w,
                         const std::vector<PassResult>& passes);

/// A named metric value.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind the value (0 when not a sample statistic).
  uint64_t samples = 0;
};

/// Nearest-rank median; 0 when empty.
double Median(std::vector<double> v);

/// The end-to-end metrics of a set of passes, plus the class shares and
/// read-your-write latency that accompany them in the printed report.
struct EndToEnd {
  std::vector<Metric> gated;  // the BENCHMARK.json end-to-end set
  std::vector<Metric> extra;  // reported, not gated
  /// Throughput of each cycle, in run order.
  std::vector<double> cycle_ops_per_s;
};
EndToEnd ComputeEndToEnd(const Workload& w,
                         const std::vector<PassResult>& passes,
                         const std::vector<double>& setup_s,
                         double peak_rss_mb, uint64_t failed);

/// `ru_maxrss` of this process, in MB.
double PeakRssMb();

/// Prints `metrics` one per line (name, value, unit, samples).
void PrintMetrics(const char* heading, const std::vector<Metric>& metrics);

/// Prints how many cycles `e2e` rests on and the range of their
/// throughput, so a host slowdown within the run shows.
void PrintCycles(const EndToEnd& e2e);

/// The last stdout line: the benchmark's result object.
void PrintResultJson(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics);

/// Command line shared by both targets.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string out_dir = ".bench_out";
};
/// Parses `--workload NAME --seed N --seconds S [--out-dir DIR]`; prints
/// the usage and returns nullopt on a malformed line or unknown workload.
std::optional<Workload> ParseArgs(int argc, char** argv, Args* args);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
