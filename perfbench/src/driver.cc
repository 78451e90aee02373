#include "driver.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>

namespace perfbench {

using lqdb::Relation;
using lqdb::Result;
using lqdb::Session;
using lqdb::Status;

int64_t OpId(size_t variant, size_t client, size_t index) {
  return static_cast<int64_t>(variant) * 10000000 +
         static_cast<int64_t>(client) * 1000000 + static_cast<int64_t>(index);
}

int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-independent hash of an answer relation (constant ids agree
/// across services built from the same world text).
uint64_t AnswerHash(const Relation& rel) {
  uint64_t sum = 0;
  for (const lqdb::Tuple& t : rel.tuples()) {
    uint64_t h = 0x243f6a8885a308d3ULL;
    for (lqdb::Value v : t) h = Mix(h + v);
    sum += Mix(h);
  }
  return Mix(sum ^ Mix(rel.size() * 64 + static_cast<uint64_t>(rel.arity())));
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v->size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

/// Reference answers of one text in one database state.
struct Reference {
  uint64_t certain = 0;
  uint64_t possible = 0;
};

bool IsQuery(const Op& op) {
  return op.kind == OpKind::kCertain || op.kind == OpKind::kPossible;
}

/// One execution as the client issues it: a synchronous call, or the
/// shell's `ExecuteAsync(...).get()`.
Result<Relation> Execute(Session& session, lqdb::PreparedHandle handle,
                         bool possible, bool async) {
  if (!async) {
    return possible ? session.ExecutePossible(handle)
                    : session.Execute(handle);
  }
  Result<lqdb::AsyncExecution> ticket = session.ExecuteAsync(handle, possible);
  if (!ticket.ok()) return ticket.status();
  return ticket->result.get();
}

Status PrepareAndRun(Session& session, const std::string& text,
                     bool possible, bool async) {
  Result<lqdb::PreparedInfo> info = session.Prepare(text);
  if (!info.ok()) return info.status();
  return Execute(session, info->handle, possible, async).status();
}

/// A pass's live objects; destroyed outside the timed phase.
struct Live {
  std::unique_ptr<lqdb::CwDatabase> db;
  std::unique_ptr<lqdb::Service> service;
  std::vector<std::shared_ptr<Session>> sessions;
};

Status SetUp(const Workload& w, const Variant& v, Live* live,
             PassResult* pass) {
  const int64_t t0 = NowNs();
  Result<std::unique_ptr<lqdb::CwDatabase>> db =
      lqdb::ParseCwDatabase(v.world_text);
  if (!db.ok()) return db.status();
  pass->load_ms = static_cast<double>(NowNs() - t0) / 1e6;
  live->db = std::move(*db);
  lqdb::ServiceOptions options;
  options.threads = w.service_threads;
  live->service = std::make_unique<lqdb::Service>(live->db.get(), options);
  for (size_t c = 0; c < v.clients.size(); ++c) {
    Result<std::shared_ptr<Session>> session = live->service->OpenSession();
    if (!session.ok()) return session.status();
    live->sessions.push_back(*session);
    // Sessions build their engine on first execution.
    Status warm = PrepareAndRun(**session, kWarmupQuery, false, w.async);
    if (!warm.ok()) return warm;
  }
  for (const Op& op : v.pool) {
    Status warm = PrepareAndRun(*live->sessions[0], op.text,
                                op.kind == OpKind::kPossible, w.async);
    if (!warm.ok()) return warm;
  }
  pass->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return Status::OK();
}

void PushSpan(std::vector<Span>* spans, const char* name, int64_t start,
              int64_t end, int64_t parent, int64_t op) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.op = op;
  spans->push_back(s);
}

/// What the clients of a pass publish about their owned facts: one bit per
/// client (set while its fact is present) and one write counter per
/// client. A client bumps its counter before and after each
/// `Assert`/`Retract`, so the counter is odd while the write is in flight,
/// and flips its bit in between. An op that reads the same even counter of
/// another client at its start and at its end overlapped none of that
/// client's writes, so the bit it read is the state its answer must reflect.
struct Published {
  std::atomic<uint32_t> bits{0};
  std::atomic<uint64_t> writes[32]{};
};

/// One closed-loop client: issues its ops back to back.
void RunClient(const Workload& w, size_t variant, size_t c, Live& live,
               Published* published, bool trace, std::vector<OpResult>* out,
               std::vector<Span>* spans) {
  const Variant& v = w.variants[variant];
  Session& session = *live.sessions[c];
  lqdb::Service& service = *live.service;
  const size_t n_owned = v.owned.size();
  const uint32_t own_bit = 1u << c;
  bool own_present = false;
  int64_t update_start = -1;
  std::vector<uint64_t> writes_at_start(n_owned);
  const std::vector<Op>& ops = v.clients[c];
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    OpResult& r = (*out)[i];
    const int64_t op_id = OpId(variant, c, i);
    for (size_t d = 0; d < n_owned; ++d) {
      writes_at_start[d] = published->writes[d].load();
    }
    if (!IsQuery(op)) {
      const Fact& fact = v.owned[c];
      published->writes[c].fetch_add(1);
      r.start_ns = NowNs();
      const Status status = op.kind == OpKind::kAssert
                                ? service.Assert(fact.pred, fact.args)
                                : service.Retract(fact.pred, fact.args);
      r.end_ns = NowNs();
      r.execute_ns = r.end_ns - r.start_ns;
      r.ok = status.ok();
      if (!r.ok) r.error = status.ToString();
      own_present = op.kind == OpKind::kAssert;
      if (own_present) {
        published->bits.fetch_or(own_bit);
      } else {
        published->bits.fetch_and(~own_bit);
      }
      published->writes[c].fetch_add(1);
      update_start = r.start_ns;
      if (trace) {
        const int64_t root = static_cast<int64_t>(spans->size());
        PushSpan(spans, "op.update", r.start_ns, r.end_ns, -1, op_id);
        PushSpan(spans, "service.update", r.start_ns, r.end_ns, root, op_id);
      }
    } else {
      const bool possible = op.kind == OpKind::kPossible;
      r.start_ns = NowNs();
      Result<lqdb::PreparedInfo> info = session.Prepare(op.text);
      const int64_t prepared = NowNs();
      Result<Relation> answer =
          info.ok() ? Execute(session, info->handle, possible, w.async)
                    : Result<Relation>(info.status());
      r.end_ns = NowNs();
      r.prepare_ns = prepared - r.start_ns;
      r.execute_ns = r.end_ns - prepared;
      if (op.after_update && update_start >= 0) {
        r.fresh_ms = static_cast<double>(r.end_ns - update_start) / 1e6;
        update_start = -1;
      }
      r.ok = answer.ok();
      if (r.ok) {
        r.answer_hash = AnswerHash(*answer);
      } else {
        r.error = answer.status().ToString();
      }
      r.prepare_hit = info.ok() && info->cache_hit;
      const lqdb::ExecutionTrace& last = session.last_trace();
      r.result_hit = last.cached;
      r.mappings = last.mappings_examined;
      r.memo = last.memo;
      if (trace) {
        const int64_t root = static_cast<int64_t>(spans->size());
        PushSpan(spans, possible ? "op.possible" : "op.certain", r.start_ns,
                 r.end_ns, -1, op_id);
        PushSpan(spans, "service.prepare", r.start_ns, prepared, root, op_id);
        PushSpan(spans, "service.execute", prepared, r.end_ns, root, op_id);
      }
    }
    r.state = (published->bits.load() & ~own_bit) |
              (own_present ? own_bit : 0);
    r.settled = own_bit;
    for (size_t d = 0; d < n_owned; ++d) {
      const uint64_t at_end = published->writes[d].load();
      if (at_end == writes_at_start[d] && at_end % 2 == 0) {
        r.settled |= 1u << d;
      }
    }
  }
}

/// One pass over one world (see `RunPasses`); fails only when set-up
/// fails.
Result<PassResult> RunPass(const Workload& w, size_t variant, bool trace) {
  const Variant& v = w.variants[variant];
  PassResult pass;
  pass.variant = variant;
  pass.traced = trace;
  Live live;
  Status setup = SetUp(w, v, &live, &pass);
  if (!setup.ok()) return setup;
  const size_t n = v.clients.size();
  pass.ops.resize(n);
  pass.spans.resize(n);
  for (size_t c = 0; c < n; ++c) {
    pass.ops[c].resize(v.clients[c].size());
    if (trace) pass.spans[c].reserve(3 * v.clients[c].size());
  }
  Published published;
  if (n == 1) {
    const int64_t t0 = NowNs();
    RunClient(w, variant, 0, live, &published, trace, &pass.ops[0],
              &pass.spans[0]);
    pass.timed_s = static_cast<double>(NowNs() - t0) / 1e9;
  } else {
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        RunClient(w, variant, c, live, &published, trace, &pass.ops[c],
                  &pass.spans[c]);
      });
    }
    const int64_t t0 = NowNs();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    pass.timed_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  pass.stats = live.service->stats();
  return pass;
}

}  // namespace

Result<Run> RunPasses(const Workload& w, double seconds, bool alternate) {
  // Stand-alone set-ups top the samples up to this many, within a budget.
  constexpr size_t kSetupSamples = 15;
  constexpr double kExtraSetupBudgetS = 2.0;
  Run run;
  double timed = 0;
  for (size_t cycle = 0;
       timed < seconds || (alternate && cycle < 2); ++cycle) {
    const bool trace = alternate && cycle % 2 == 1;
    for (size_t v = 0; v < w.variants.size(); ++v) {
      Result<PassResult> pass = RunPass(w, v, trace);
      if (!pass.ok()) return pass.status();
      timed += pass->timed_s;
      run.setup_s.push_back(pass->setup_s);
      run.passes.push_back(std::move(*pass));
    }
  }
  double extra = 0;
  while (run.setup_s.size() < kSetupSamples && extra < kExtraSetupBudgetS) {
    PassResult scratch;
    Live live;
    const size_t v = run.setup_s.size() % w.variants.size();
    Status setup = SetUp(w, w.variants[v], &live, &scratch);
    if (!setup.ok()) return setup;
    run.setup_s.push_back(scratch.setup_s);
    extra += scratch.setup_s;
  }
  return run;
}

CheckReport CheckAnswers(const Workload& w,
                         const std::vector<PassResult>& passes) {
  const int64_t t0 = NowNs();
  CheckReport rep;
  auto note = [&rep](std::string what) {
    if (rep.examples.size() < 5) rep.examples.push_back(std::move(what));
  };
  // (variant, text) → per-state references (index = state bitmask), and
  // whether each could be computed.
  std::map<std::pair<size_t, std::string>, std::vector<Reference>> refs;
  std::map<std::pair<size_t, std::string>, std::vector<bool>> ref_ok;
  for (size_t vi = 0; vi < w.variants.size(); ++vi) {
    const Variant& v = w.variants[vi];
    std::vector<std::string> texts;
    std::set<std::string> seen;
    for (const auto& client : v.clients) {
      for (const Op& op : client) {
        if (IsQuery(op) && seen.insert(op.text).second) {
          texts.push_back(op.text);
        }
      }
    }
    const uint32_t n_states = 1u << v.owned.size();
    for (const std::string& text : texts) {
      refs[{vi, text}].resize(n_states);
      ref_ok[{vi, text}].assign(n_states, false);
    }
    for (uint32_t s = 0; s < n_states; ++s) {
      Result<std::unique_ptr<lqdb::CwDatabase>> db =
          lqdb::ParseCwDatabase(v.world_text);
      if (!db.ok()) {
        note("reference world: " + db.status().ToString());
        continue;
      }
      lqdb::ServiceOptions options;
      options.threads = 2;
      lqdb::Service service(db->get(), options);
      bool state_ok = true;
      for (size_t c = 0; c < v.owned.size(); ++c) {
        if ((s & (1u << c)) == 0) continue;
        const Status st = service.Assert(v.owned[c].pred, v.owned[c].args);
        if (!st.ok()) {
          note("reference update: " + st.ToString());
          state_ok = false;
        }
      }
      lqdb::SessionOptions ro;
      ro.use_result_cache = false;
      ro.engine_options.exact.memo = false;
      Result<std::shared_ptr<Session>> sc = service.OpenSession(ro);
      Result<std::shared_ptr<Session>> sp = service.OpenSession(ro);
      if (!state_ok || !sc.ok() || !sp.ok()) continue;
      for (const std::string& text : texts) {
        Result<lqdb::PreparedInfo> info = (*sc)->Prepare(text);
        if (!info.ok()) {
          note("reference prepare: " + info.status().ToString());
          continue;
        }
        // Certain and possible side by side on the two pool threads.
        Result<lqdb::AsyncExecution> ec = (*sc)->ExecuteAsync(info->handle);
        Result<lqdb::AsyncExecution> ep =
            (*sp)->ExecuteAsync(info->handle, /*possible=*/true);
        if (!ec.ok() || !ep.ok()) {
          note("reference schedule failed: " + text);
          continue;
        }
        Result<Relation> certain = ec->result.get();
        Result<Relation> possible = ep->result.get();
        rep.references += 2;
        if (!certain.ok() || !possible.ok()) {
          note("reference execution failed: " + text);
          continue;
        }
        Reference& ref = refs[{vi, text}][s];
        ref.certain = AnswerHash(*certain);
        ref.possible = AnswerHash(*possible);
        ref_ok[{vi, text}][s] = true;
        if (!certain->IsSubsetOf(*possible)) {
          ++rep.subset_violations;
          note("certain not within possible: " + text);
        }
      }
    }
  }
  for (const PassResult& pass : passes) {
    const Variant& v = w.variants[pass.variant];
    const uint32_t n_states = 1u << v.owned.size();
    for (size_t c = 0; c < pass.ops.size(); ++c) {
      for (size_t i = 0; i < pass.ops[c].size(); ++i) {
        const Op& op = v.clients[c][i];
        const OpResult& r = pass.ops[c][i];
        ++rep.ops;
        if (!r.ok) {
          ++rep.failed;
          note("op failed: " + r.error);
          continue;
        }
        if (!IsQuery(op)) continue;
        const auto key = std::make_pair(pass.variant, op.text);
        bool matched = false;
        for (uint32_t s = 0; s < n_states && !matched; ++s) {
          if ((s & r.settled) != (r.state & r.settled) || !ref_ok[key][s]) {
            continue;
          }
          const Reference& ref = refs[key][s];
          matched = r.answer_hash == (op.kind == OpKind::kPossible
                                          ? ref.possible
                                          : ref.certain);
        }
        if (!matched) {
          ++rep.failed;
          ++rep.mismatches;
          note("answer differs from every legal reference: " + op.text);
        }
      }
    }
  }
  rep.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return rep;
}

double Median(std::vector<double> v) { return Percentile(&v, 50); }

EndToEnd ComputeEndToEnd(const Workload& w,
                         const std::vector<PassResult>& passes,
                         const std::vector<double>& setup_s,
                         double peak_rss_mb, uint64_t failed) {
  uint64_t ops = 0, queries = 0, certain_ops = 0, binary = 0,
           result_hits = 0, prepare_hits = 0, executed_certain = 0,
           early_exit = 0;
  uint64_t full_sweep = 0;
  for (const PassResult& pass : passes) {
    for (const auto& client : pass.ops) {
      for (const OpResult& r : client) {
        if (!r.result_hit) full_sweep = std::max(full_sweep, r.mappings);
      }
    }
  }
  // Percentiles pool the requests of all the run's cycles, and throughput
  // is all ops over all timed seconds. The host switches between a fast
  // and a slow state for stretches of seconds to minutes; pooled figures
  // move in proportion to the share of the run spent in each, where a
  // median over cycles jumps from one state to the other when that share
  // crosses one half. Each cycle's own throughput is kept for the report.
  const size_t per_cycle = w.variants.size();
  std::vector<double> certain, possible, fresh, rate;
  double timed_total = 0;
  for (size_t first = 0; first + per_cycle <= passes.size();
       first += per_cycle) {
    double timed = 0;
    uint64_t cycle_ops = 0;
    for (size_t k = first; k < first + per_cycle; ++k) {
      const PassResult& pass = passes[k];
      timed += pass.timed_s;
      for (size_t c = 0; c < pass.ops.size(); ++c) {
        for (size_t i = 0; i < pass.ops[c].size(); ++i) {
          const Op& op = w.variants[pass.variant].clients[c][i];
          const OpResult& r = pass.ops[c][i];
          ++cycle_ops;
          if (!IsQuery(op)) continue;
          ++queries;
          const double ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
          (op.kind == OpKind::kPossible ? possible : certain).push_back(ms);
          if (r.fresh_ms >= 0) fresh.push_back(r.fresh_ms);
          result_hits += r.result_hit;
          prepare_hits += r.prepare_hit;
          if (op.kind == OpKind::kCertain) {
            ++certain_ops;
            binary += op.binary_head;
            if (!r.result_hit) {
              ++executed_certain;
              early_exit += r.mappings < full_sweep;
            }
          }
        }
      }
    }
    ops += cycle_ops;
    timed_total += timed;
    rate.push_back(static_cast<double>(cycle_ops) / timed);
  }
  auto share = [](uint64_t part, uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  const uint64_t np = queries - certain_ops;
  EndToEnd out;
  out.gated.push_back(
      {"certain_p50_ms", Percentile(&certain, 50), "ms", certain_ops});
  out.gated.push_back(
      {"certain_p90_ms", Percentile(&certain, 90), "ms", certain_ops});
  out.gated.push_back({"possible_p50_ms", Percentile(&possible, 50), "ms", np});
  out.gated.push_back({"possible_p90_ms", Percentile(&possible, 90), "ms", np});
  out.gated.push_back({"ops_per_s",
                       timed_total > 0 ? static_cast<double>(ops) / timed_total
                                       : 0.0,
                       "1/s", ops});
  out.gated.push_back({"peak_rss_mb", peak_rss_mb, "MB", 0});
  out.gated.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
  if (!fresh.empty()) {
    out.extra.push_back({"fresh_p50_ms", Percentile(&fresh, 50), "ms",
                         fresh.size()});
  }
  out.extra.push_back({"failed_ratio", share(failed, ops), "ratio", ops});
  out.extra.push_back(
      {"class.binary_head_share", share(binary, certain_ops), "ratio",
       certain_ops});
  out.extra.push_back({"class.early_exit_share",
                       share(early_exit, executed_certain), "ratio",
                       executed_certain});
  out.extra.push_back(
      {"class.result_hit_share", share(result_hits, queries), "ratio", queries});
  out.extra.push_back({"class.prepare_hit_share", share(prepare_hits, queries),
                       "ratio", queries});
  // Per query shape and mode: median latency.
  std::map<std::string, std::vector<double>> by_shape;
  for (const PassResult& pass : passes) {
    for (size_t c = 0; c < pass.ops.size(); ++c) {
      for (size_t i = 0; i < pass.ops[c].size(); ++i) {
        const Op& op = w.variants[pass.variant].clients[c][i];
        const OpResult& r = pass.ops[c][i];
        if (!IsQuery(op)) continue;
        const std::string key =
            (op.kind == OpKind::kPossible ? "possible." : "certain.") +
            op.shape;
        by_shape[key].push_back(static_cast<double>(r.end_ns - r.start_ns) /
                                1e6);
      }
    }
  }
  for (auto& [key, v] : by_shape) {
    const uint64_t n = v.size();
    out.extra.push_back({"shape." + key + ".p50_ms", Percentile(&v, 50), "ms",
                         n});
  }
  out.cycle_ops_per_s = std::move(rate);
  return out;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-34s %14.6f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

void PrintCycles(const EndToEnd& e2e) {
  std::vector<double> rate = e2e.cycle_ops_per_s;
  std::printf("cycles: %zu; ops_per_s per cycle: min %.2f, median %.2f, "
              "max %.2f\n",
              rate.size(), Percentile(&rate, 0), Percentile(&rate, 50),
              Percentile(&rate, 100));
}

void PrintResultJson(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::optional<Workload> ParseArgs(int argc, char** argv, Args* args) {
  bool ok = argc % 2 == 1;
  for (int i = 1; ok && i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      ok = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      ok = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      ok = false;
    }
  }
  std::optional<Workload> w;
  if (ok) w = MakeWorkload(args->workload, args->seed);
  if (!w.has_value()) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "[--out-dir DIR]\nworkloads:%s\n",
                 argv[0], names.c_str());
  }
  return w;
}

}  // namespace perfbench
