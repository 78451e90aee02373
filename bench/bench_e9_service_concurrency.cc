// E9 — The service layer: prepared-statement reuse and concurrent
// sessions.
//
// Two claims to keep honest across PR snapshots:
//   1. Prepared execution pays for preparation once: a warm
//      `Prepare` (cache hit) + `Execute` must be measurably faster than a
//      cold service preparing the same text (parse + bind + RA-compile,
//      plus service construction — the real cold-start a client sees).
//      The pairable names BM_ServicePrepare/{cold,warm}/* make the gap a
//      one-line diff in tools/collect_bench.py.
//   2. Sessions scale: K sessions executing cache-hit statements
//      concurrently share one immutable database under a reader lock, so
//      per-iteration wall time should grow sublinearly in K up to the
//      host's core count (1/2/8-session rows, UseRealTime).
//
// The per-execution work itself also got cheaper this PR: RaExecutor now
// reuses its per-plan-node hash tables across images instead of
// reallocating them per `Execute` (see src/lqdb/ra/executor.h for the E8
// before/after numbers on the 1540-image enumeration).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "lqdb/service/service.h"
#include "lqdb/util/table.h"

namespace {

using namespace lqdb;
using namespace lqdb::bench;

constexpr int kKnown = 16;
constexpr int kUnknowns = 1;
constexpr uint64_t kSeed = 23;

// Cold path: every iteration stands up a fresh service (empty cache, new
// 1-thread pool) and prepares + executes one pool query — parse, bind and
// RA-compile all run. This is the cost the cache exists to amortize.
void BM_ServicePrepareCold(benchmark::State& state) {
  auto lb = MakeOrgDatabase(kKnown, kUnknowns, kSeed);
  // Intern every query's names once so each cold service parses an
  // identical vocabulary (parse order must not change constant ids).
  {
    Service warmup(lb.get(), {/*threads=*/1});
    auto session = warmup.OpenSession().value();
    for (const std::string& text : OrgQueryPool()) {
      auto info = session->Prepare(text);
      benchmark::DoNotOptimize(info);
    }
  }
  const std::vector<std::string> pool = OrgQueryPool();
  size_t i = 0;
  for (auto _ : state) {
    Service cold(lb.get(), {/*threads=*/1});
    auto session = cold.OpenSession().value();
    auto info = session->Prepare(pool[i++ % pool.size()]).value();
    auto answer = session->Execute(info.handle);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_ServicePrepareCold)->Name("BM_ServicePrepare/cold")
    ->Unit(benchmark::kMillisecond);

// Warm path: same statements through one long-lived service — every
// Prepare is a cache hit and Execute runs the pre-bound, pre-compiled
// statement.
void BM_ServicePrepareWarm(benchmark::State& state) {
  auto lb = MakeOrgDatabase(kKnown, kUnknowns, kSeed);
  Service service(lb.get(), {/*threads=*/1});
  auto session = service.OpenSession().value();
  const std::vector<std::string> pool = OrgQueryPool();
  for (const std::string& text : pool) {
    auto info = session->Prepare(text);
    benchmark::DoNotOptimize(info);
  }
  size_t i = 0;
  for (auto _ : state) {
    auto info = session->Prepare(pool[i++ % pool.size()]).value();
    auto answer = session->Execute(info.handle);
    benchmark::DoNotOptimize(answer);
  }
  ServiceStats stats = service.stats();
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
}
BENCHMARK(BM_ServicePrepareWarm)->Name("BM_ServicePrepare/warm")
    ->Unit(benchmark::kMillisecond);

// K sessions fan one async execution each onto the shared pool per
// iteration (round-robin over the query pool), then join. Real time, so
// the 8-session row shows how far the shared-database reader lock lets the
// sessions actually overlap.
void BM_ServiceSessions(benchmark::State& state) {
  const int num_sessions = static_cast<int>(state.range(0));
  auto lb = MakeOrgDatabase(kKnown, kUnknowns, kSeed);
  Service service(lb.get());
  SessionOptions opts;
  opts.max_in_flight = 8;
  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < num_sessions; ++i) {
    sessions.push_back(service.OpenSession(opts).value());
  }
  std::vector<PreparedHandle> handles;
  for (const std::string& text : OrgQueryPool()) {
    handles.push_back(sessions[0]->Prepare(text).value().handle);
  }
  size_t i = 0;
  for (auto _ : state) {
    std::vector<AsyncExecution> pending;
    pending.reserve(sessions.size());
    for (const std::shared_ptr<Session>& session : sessions) {
      pending.push_back(
          session->ExecuteAsync(handles[i++ % handles.size()]).value());
    }
    for (AsyncExecution& execution : pending) {
      auto answer = execution.result.get();
      benchmark::DoNotOptimize(answer);
    }
  }
  state.SetItemsProcessed(state.iterations() * num_sessions);
  state.SetLabel(std::to_string(num_sessions) + " sessions");
}
BENCHMARK(BM_ServiceSessions)
    ->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void PrintServiceTable() {
  std::printf(
      "E9: query service — prepared-statement cache and session "
      "concurrency\norg database: %d known constants, %d unknown; pool of "
      "%zu arity-1 queries\n\n",
      kKnown, kUnknowns, OrgQueryPool().size());
  TablePrinter table({"engine", "cold prep+exec(s)", "warm prep+exec(s)",
                      "speedup", "answers agree"});
  auto lb = MakeOrgDatabase(kKnown, kUnknowns, kSeed);
  std::vector<Relation> cold_answers, warm_answers;
  double cold_s = Seconds([&] {
    Service cold(lb.get(), {/*threads=*/1});
    auto session = cold.OpenSession().value();
    for (const std::string& text : OrgQueryPool()) {
      auto info = session->Prepare(text).value();
      cold_answers.push_back(session->Execute(info.handle).value());
    }
  });
  Service warm_service(lb.get(), {/*threads=*/1});
  auto warm_session = warm_service.OpenSession().value();
  for (const std::string& text : OrgQueryPool()) {
    auto info = warm_session->Prepare(text);
    benchmark::DoNotOptimize(info);
  }
  double warm_s = Seconds([&] {
    for (const std::string& text : OrgQueryPool()) {
      auto info = warm_session->Prepare(text).value();
      warm_answers.push_back(warm_session->Execute(info.handle).value());
    }
  });
  bool agree = cold_answers.size() == warm_answers.size();
  for (size_t i = 0; agree && i < cold_answers.size(); ++i) {
    agree = cold_answers[i] == warm_answers[i];
  }
  table.AddRow({"exact", FormatDouble(cold_s, 4), FormatDouble(warm_s, 4),
                FormatDouble(warm_s > 0 ? cold_s / warm_s : 0.0, 2) + "x",
                agree ? "yes" : "NO"});
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nshape check: identical answers; the warm column drops the parse +\n"
      "bind + RA-compile (and service construction) that the cold column\n"
      "pays per query, so its speedup column must stay > 1.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintServiceTable();
  lqdb::bench::RunBenchmarks(argc, argv);
  return 0;
}
