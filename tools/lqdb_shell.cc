// lqdb_shell — an interactive front end for CW logical databases.
//
// Loads a database in the lqdb text format (see src/lqdb/io/text_format.h)
// and answers queries as a thin client of the query service
// (src/lqdb/service/service.h): every query command prepares a statement
// through the service's shared cache and executes it asynchronously on a
// session, so the shell exercises the same code path a concurrent client
// would:
//
//     $ lqdb_shell mydb.lqdb
//     lqdb> exact (x) . !MURDERER(x)
//     {(Victoria)}
//     lqdb> prepare (x) . MURDERER(x)
//     prepared #1 (compiled)
//     lqdb> execute
//     {(Jack)}
//
// Run `help` inside the shell for the command list. A script path may be
// passed as argv[1]; with `--batch` the shell exits at end of input
// instead of switching to stdin.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lqdb/approx/approx.h"
#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/cwdb/theory.h"
#include "lqdb/engine/engine.h"
#include "lqdb/eval/answer.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/io/text_format.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/semijoin.h"
#include "lqdb/ra/validate.h"
#include "lqdb/service/service.h"
#include "lqdb/util/parse.h"

namespace lqdb {
namespace {

// `set` arguments parse via the shared strict-decimal helper
// (lqdb/util/parse.h): "4x" and overflowing values are rejected rather
// than prefix-parsed the way std::stoi would.

unsigned long long Ull(uint64_t v) {
  return static_cast<unsigned long long>(v);
}

// Largest `set threads` value. The next query's session starts that many
// OS threads, so a huge count would end the shell on an exception instead
// of a Status.
constexpr unsigned long long kMaxThreads = 256;

constexpr const char* kHelp = R"(commands:
  load FILE              load a database (lqdb text format)
  save FILE              write the database back to disk
  show                   print constants, facts and axiom counts
  theory                 print the implied first-order theory T
  fact P(c1, c2, ...)    add an atomic fact (rebuilds the service)
  assert P(c1, c2, ...)  add a fact through the live service: prepared
                         statements survive, and only cached results that
                         read P (or, for a new constant, any result) drop
  retract P(c1, c2, ...) remove a stored fact through the live service
  known NAME...          declare constants with known identity
  unknown NAME...        declare null values
  distinct A B           add the uniqueness axiom not(A = B)
  exact QUERY            certain answers (Theorem 1; may be exponential)
  possible QUERY         tuples holding in at least one model
  approx QUERY           sound polynomial approximation (Section 5)
  physical QUERY         naive evaluation over Ph1 (ignores nulls!)
  query QUERY            evaluate with the currently selected session
  prepare QUERY          parse+bind+compile once; prints a statement handle
  execute [N]            run a prepared statement (default: last prepared)
  session                list open sessions (* marks the selected one)
  session new [ENGINE]   open and select a session (default: current engine)
  session use N          route query/prepare/execute through session N
  stats                  service and per-session counters (incl. kernel
                         memo and result-cache hit/miss/invalidation)
  engines                list registered engines and their capabilities
  set engine NAME        select the engine used by `query`
  set threads N          worker threads of the exact engines' Theorem 1
                         sweep (0 = hardware, at most 256; answers are
                         identical)
  set max_mappings N     Theorem 1 enumeration budget per query
  set join_cap N         DP join-order cap (0 = always greedy)
  set memo on|off        the cross-query result cache (on by default;
                         identical answers)
  plan QUERY             show Q^ and its relational-algebra plan
  explain QUERY          how the compiled path evaluates QUERY: its plan
                         annotated with per-node cardinality estimates
                         (a shared subplan prints once; later references
                         repeat its #k), the join-order decisions, plan
                         size and validator verdicts (or the fallback it
                         takes)
  help                   this text
  quit                   leave
query syntax:  (x, y) . exists z. R(x, z) & !S(z, y)   or a sentence)";

class Shell {
 public:
  Shell() : lb_(std::make_unique<CwDatabase>()) {}

  /// Returns false when the shell should exit.
  bool Handle(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') return true;
    std::string rest;
    std::getline(in, rest);
    while (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::puts(kHelp);
    } else if (cmd == "load") {
      auto loaded = LoadCwDatabase(rest);
      if (!loaded.ok()) {
        Report(loaded.status());
      } else {
        ResetService();
        lb_ = std::move(loaded).value();
        std::printf("loaded %zu constants, %zu facts, %zu explicit axioms\n",
                    lb_->num_constants(), lb_->NumFacts(),
                    lb_->explicit_distinct().size());
      }
    } else if (cmd == "save") {
      Report(SaveCwDatabase(*lb_, rest));
    } else if (cmd == "show") {
      Show();
    } else if (cmd == "theory") {
      Theory theory = TheoryOf(lb_.get());
      std::printf("%s", PrintTheory(lb_->vocab(), theory).c_str());
    } else if (cmd == "fact") {
      // Reuse the text-format parser for one directive.
      auto merged = ParseCwDatabase(SerializeCwDatabase(*lb_) +
                                    "\nfact " + rest + "\n");
      if (!merged.ok()) {
        Report(merged.status());
      } else {
        ResetService();
        lb_ = std::move(merged).value();
      }
    } else if (cmd == "assert" || cmd == "retract") {
      Update(cmd, rest);
    } else if (cmd == "known" || cmd == "unknown" || cmd == "distinct") {
      auto merged = ParseCwDatabase(SerializeCwDatabase(*lb_) + "\n" + cmd +
                                    " " + rest + "\n");
      if (!merged.ok()) {
        Report(merged.status());
      } else {
        ResetService();
        lb_ = std::move(merged).value();
      }
    } else if (cmd == "engines") {
      ListEngines();
    } else if (cmd == "explain") {
      Explain(rest);
    } else if (cmd == "set") {
      Set(rest);
    } else if (cmd == "session") {
      SessionCmd(rest);
    } else if (cmd == "prepare") {
      Prepare(rest);
    } else if (cmd == "execute") {
      Execute(rest);
    } else if (cmd == "stats") {
      Stats();
    } else if (cmd == "exact" || cmd == "possible" || cmd == "approx" ||
               cmd == "physical" || cmd == "query" || cmd == "plan") {
      RunQuery(cmd, rest);
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
    return true;
  }

 private:
  void Report(const Status& status) {
    if (!status.ok()) std::printf("error: %s\n", status.ToString().c_str());
  }

  void Show() {
    std::string known, unknown;
    for (ConstId c = 0; c < lb_->num_constants(); ++c) {
      (lb_->IsKnown(c) ? known : unknown) +=
          " " + lb_->vocab().ConstantName(c);
    }
    std::printf("known:%s\nunknown:%s\n", known.c_str(), unknown.c_str());
    PhysicalDatabase ph1 = MakePh1(*lb_);
    std::printf("%s", ph1.ToString().c_str());
    std::printf("uniqueness axioms: %zu (%zu explicit)\nfully specified: %s\n",
                lb_->CountDistinctPairs(), lb_->explicit_distinct().size(),
                lb_->IsFullySpecified() ? "yes" : "no");
  }

  void ListEngines() {
    const EngineRegistry& registry = EngineRegistry::Global();
    std::printf("%-16s %-6s %-9s %-11s %-9s\n", "engine", "sound",
                "complete", "polynomial", "possible");
    for (const std::string& name : registry.Names()) {
      auto caps = registry.CapabilitiesOf(name);
      if (!caps.ok()) continue;
      std::printf("%-16s %-6s %-9s %-11s %-9s%s\n", name.c_str(),
                  caps->sound ? "yes" : "no",
                  caps->complete ? "yes" : "no",
                  caps->polynomial ? "yes" : "no",
                  caps->supports_possible ? "yes" : "no",
                  name == engine_name_ ? "   <- selected" : "");
    }
    std::printf("threads: %d   max_mappings: %llu\n",
                options_.exact.threads,
                static_cast<unsigned long long>(options_.exact.max_mappings));
  }

  void Set(const std::string& rest) {
    std::istringstream in(rest);
    std::string key, value;
    in >> key >> value;
    if (key == "engine") {
      if (!EngineRegistry::Global().Has(value)) {
        Report(EngineRegistry::Global().Create(value, lb_.get()).status());
        return;
      }
      engine_name_ = value;
      current_ = SIZE_MAX;  // back to auto-picking a session by engine
      std::printf("engine = %s\n", engine_name_.c_str());
    } else if (key == "threads") {
      unsigned long long threads = 0;
      if (!ParseStrictUint(value, &threads) || threads > kMaxThreads) {
        Report(Status::InvalidArgument(
            "set threads expects an integer in [0, 256] (0 = hardware)"));
        return;
      }
      options_.exact.threads = static_cast<int>(threads);
      current_ = SIZE_MAX;
      std::printf("threads = %d\n", options_.exact.threads);
    } else if (key == "max_mappings") {
      unsigned long long max = 0;
      if (!ParseStrictUint(value, &max) || max == 0) {
        Report(Status::InvalidArgument(
            "set max_mappings expects a positive integer"));
        return;
      }
      options_.exact.max_mappings = max;
      current_ = SIZE_MAX;
      std::printf("max_mappings = %llu\n", max);
    } else if (key == "memo") {
      if (value != "on" && value != "off") {
        Report(Status::InvalidArgument("set memo expects 'on' or 'off'"));
        return;
      }
      use_result_cache_ = value == "on";
      current_ = SIZE_MAX;
      std::printf("memo = %s\n", value.c_str());
    } else if (key == "join_cap") {
      unsigned long long cap = 0;
      if (!ParseStrictUint(value, &cap) || cap > 20) {
        Report(Status::InvalidArgument(
            "set join_cap expects an integer in [0, 20] (0 = always "
            "greedy)"));
        return;
      }
      options_.exact.ra_dp_join_cap = static_cast<size_t>(cap);
      current_ = SIZE_MAX;
      std::printf("join_cap = %llu\n", cap);
    } else {
      Report(Status::InvalidArgument(
          "set expects 'engine NAME', 'threads N', 'max_mappings N', "
          "'join_cap N' or 'memo on|off'"));
    }
  }

  /// The registry engine a shell command denotes: `query` uses the
  /// selected one, `exact` and `possible` the compiled "exact" engine (its
  /// sweep fans across `set threads` workers), and the other commands the
  /// engine of their own name.
  std::string EngineFor(const std::string& command) const {
    if (command == "query") return engine_name_;
    if (command == "possible") return "exact";
    return command;  // "exact", "approx", "physical"
  }

  /// Parses `text` for `explain` and `plan` the way every query command
  /// parses it: through the service, whose `Session::Prepare` interns new
  /// names under the writer lock and moves the result cache's epochs when
  /// `C` grows. Parsing straight into the vocabulary would grow `C` behind
  /// the cache, which would keep serving answers computed over the old
  /// `C`. The second parse finds every name interned and adds none.
  Result<Query> ParseViaService(const std::string& engine,
                                const std::string& text) {
    Session* session = SessionFor(engine);
    if (session == nullptr) {
      return Status::Internal("no session for engine '" + engine + "'");
    }
    LQDB_RETURN_IF_ERROR(session->Prepare(text).status());
    return ParseQuery(lb_->mutable_vocab(), text);
  }

  /// `explain`: how the exact engine would evaluate the query — the
  /// compiled relational-algebra plan (join-ordered against the loaded
  /// database's cardinalities) and its DAG size.
  /// Queries outside the compilable first-order fragment report the
  /// fallback the exact engine takes instead.
  void Explain(const std::string& text) {
    auto query = ParseViaService("exact", text);
    if (!query.ok()) return Report(query.status());
    RaCompiler compiler(
        &lb_->vocab(), RaCardinalitiesFor(*lb_, options_.exact.ra_dp_join_cap));
    auto plan = compiler.Compile(query.value());
    if (!plan.ok()) {
      std::printf("not compilable to relational algebra: %s\n",
                  plan.status().ToString().c_str());
      std::printf(
          "the compiled engine falls back to the batched evaluator for "
          "this query\n");
      return;
    }
    std::printf("%s", compiler.AnnotatePlan(plan.value()).c_str());
    for (const JoinOrderInfo& jo : compiler.join_order_log()) {
      std::printf("join order: %s over %zu conjuncts, est %.3g rows\n",
                  jo.used_dp ? "DP" : "greedy", jo.conjuncts,
                  jo.estimated_rows);
    }
    std::printf("join_cap: %zu\n", options_.exact.ra_dp_join_cap);
    std::printf("nodes: %zu unique\n", plan.value()->NumUniqueNodes());
    // The static plan validator's verdict (see src/lqdb/ra/validate.h) on
    // the compiled plan and on its semijoin-reduced form — the shapes the
    // exact engine actually executes.
    PlanValidateOptions vopts;
    vopts.vocab = &lb_->vocab();
    const Status verdict = ValidatePlan(plan.value(), vopts);
    std::printf("validator: %s\n",
                verdict.ok() ? "OK" : verdict.ToString().c_str());
    auto reduced = SemijoinReduce(plan.value());
    if (reduced.ok()) {
      vopts.param = reduced->param.get();
      const Status rverdict = ValidatePlan(reduced->plan, vopts);
      std::printf("validator (reduced): %s\n",
                  rverdict.ok() ? "OK" : rverdict.ToString().c_str());
    }
  }

  void RunQuery(const std::string& command, const std::string& text) {
    if (command == "plan") {
      auto query = ParseViaService("approx", text);
      if (!query.ok()) return Report(query.status());
      auto approx = ApproxEvaluator::Make(lb_.get());
      if (!approx.ok()) return Report(approx.status());
      auto tq = approx.value()->Transform(query.value());
      if (!tq.ok()) return Report(tq.status());
      // Q^ is over the approximation's private L' (NE, the alpha
      // predicates), which the loaded database's vocabulary never sees.
      const Vocabulary& lprime = approx.value()->vocab();
      std::printf("Q^ = %s\n", PrintQuery(lprime, tq->query).c_str());
      RaCompiler compiler(&lprime);
      auto plan = compiler.Compile(tq->query);
      if (!plan.ok()) return Report(plan.status());
      std::printf("%s", plan.value()->ToString(lprime).c_str());
      return;
    }
    Session* session = command == "query" ? CurrentSession()
                                          : SessionFor(EngineFor(command));
    if (session == nullptr) return;  // open error already reported
    auto info = session->Prepare(text);
    if (!info.ok()) return Report(info.status());
    last_handle_ = info->handle;
    // Ph1 after Prepare: parsing may have interned constants the answer
    // printer needs names for.
    PhysicalDatabase ph1 = MakePh1(*lb_);
    auto async = session->ExecuteAsync(info->handle, command == "possible");
    if (!async.ok()) return Report(async.status());
    auto answer = async->result.get();
    if (!answer.ok()) return Report(answer.status());
    std::printf("%s\n", AnswerToString(ph1, answer.value()).c_str());
  }

  /// `assert P(c1, ...)` / `retract P(c1, ...)`: a single-fact update
  /// through the live service. Unlike `fact` (which rebuilds the whole
  /// service), sessions and prepared statements survive — only dependent
  /// cached results are invalidated.
  void Update(const std::string& cmd, const std::string& rest) {
    const size_t open = rest.find('(');
    const size_t close = rest.rfind(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      Report(Status::InvalidArgument(cmd + " expects P(c1, c2, ...)"));
      return;
    }
    auto trim = [](std::string s) {
      while (!s.empty() && s.front() == ' ') s.erase(0, 1);
      while (!s.empty() && s.back() == ' ') s.pop_back();
      return s;
    };
    const std::string pred = trim(rest.substr(0, open));
    if (pred.empty()) {
      Report(Status::InvalidArgument(cmd + " expects a predicate name"));
      return;
    }
    std::vector<std::string> names;
    std::istringstream args(rest.substr(open + 1, close - open - 1));
    std::string arg;
    while (std::getline(args, arg, ',')) {
      arg = trim(arg);
      if (arg.empty()) {
        Report(Status::InvalidArgument(cmd + ": empty constant name"));
        return;
      }
      names.push_back(arg);
    }
    const Status status = cmd == "assert" ? Svc().Assert(pred, names)
                                          : Svc().Retract(pred, names);
    if (!status.ok()) return Report(status);
    std::printf("%sed (db version %llu)\n", cmd.c_str(),
                Ull(Svc().db_version()));
  }

  /// `session` / `session new [ENGINE]` / `session use N`.
  void SessionCmd(const std::string& rest) {
    std::istringstream in(rest);
    std::string sub, arg;
    in >> sub >> arg;
    if (sub.empty()) {
      if (sessions_.empty()) {
        std::printf("no sessions (one opens on the first query)\n");
        return;
      }
      for (size_t i = 0; i < sessions_.size(); ++i) {
        const Session& s = *sessions_[i];
        std::printf(
            "%c #%zu %-16s threads=%d prepares=%llu executions=%llu\n",
            i == current_ ? '*' : ' ', i, s.options().engine.c_str(),
            s.options().engine_options.exact.threads, Ull(s.prepares()),
            Ull(s.executions()));
      }
    } else if (sub == "new") {
      const std::string engine = arg.empty() ? engine_name_ : arg;
      if (OpenNewSession(engine) == nullptr) return;
      current_ = sessions_.size() - 1;
      std::printf("session #%zu (%s) opened and selected\n", current_,
                  engine.c_str());
    } else if (sub == "use") {
      unsigned long long n = 0;
      if (!ParseStrictUint(arg, &n) || n >= sessions_.size()) {
        Report(Status::InvalidArgument(
            "session use expects an index listed by 'session'"));
        return;
      }
      current_ = static_cast<size_t>(n);
      std::printf("session #%zu (%s) selected\n", current_,
                  sessions_[current_]->options().engine.c_str());
    } else {
      Report(Status::InvalidArgument(
          "session expects no argument, 'new [ENGINE]' or 'use N'"));
    }
  }

  void Prepare(const std::string& text) {
    Session* session = CurrentSession();
    if (session == nullptr) return;
    auto info = session->Prepare(text);
    if (!info.ok()) return Report(info.status());
    last_handle_ = info->handle;
    std::printf("prepared #%llu (%s)\n", Ull(info->handle),
                info->cache_hit ? "cache hit" : "compiled");
  }

  void Execute(const std::string& rest) {
    std::istringstream in(rest);
    std::string arg;
    in >> arg;
    PreparedHandle handle = last_handle_;
    if (!arg.empty()) {
      unsigned long long n = 0;
      if (!ParseStrictUint(arg, &n)) {
        Report(Status::InvalidArgument(
            "execute expects a handle printed by 'prepare'"));
        return;
      }
      handle = n;
    }
    if (handle == 0) {
      Report(Status::InvalidArgument(
          "nothing prepared yet; run 'prepare QUERY' first"));
      return;
    }
    Session* session = CurrentSession();
    if (session == nullptr) return;
    PhysicalDatabase ph1 = MakePh1(*lb_);
    auto async = session->ExecuteAsync(handle);
    if (!async.ok()) return Report(async.status());
    auto answer = async->result.get();
    if (!answer.ok()) return Report(answer.status());
    std::printf("%s\n", AnswerToString(ph1, answer.value()).c_str());
  }

  void Stats() {
    if (service_ == nullptr) {
      std::printf("service not started (no queries yet)\n");
      return;
    }
    ServiceStats s = service_->stats();
    std::printf(
        "service: %d pool threads, %zu sessions opened, %zu cached queries\n"
        "prepares: %llu (%llu hits, %llu misses)\n"
        "executions: %llu (%llu async, %llu cancelled)\n"
        "updates: %llu asserts, %llu retracts (db version %llu)\n"
        "result cache: %llu hits, %llu misses, %llu invalidated, "
        "%zu cached\n"
        "kernel memo: %llu row hits, %llu row misses, %llu images skipped\n",
        service_->threads(), s.sessions_opened, s.cached_queries,
        Ull(s.prepares), Ull(s.cache_hits), Ull(s.cache_misses),
        Ull(s.executions), Ull(s.async_executions), Ull(s.cancelled),
        Ull(s.asserts), Ull(s.retracts), Ull(s.db_version),
        Ull(s.result_hits), Ull(s.result_misses),
        Ull(s.result_invalidations), s.cached_results,
        Ull(s.memo_row_hits), Ull(s.memo_row_misses),
        Ull(s.memo_images_skipped));
    for (size_t i = 0; i < sessions_.size(); ++i) {
      const Session& session = *sessions_[i];
      std::printf("%c #%zu %-16s prepares=%llu hits=%llu executions=%llu\n",
                  i == current_ ? '*' : ' ', i,
                  session.options().engine.c_str(), Ull(session.prepares()),
                  Ull(session.cache_hits()), Ull(session.executions()));
      const ExecutionTrace& trace = session.last_trace();
      if (trace.query != nullptr) {
        std::printf(
            "      last: %s  [%s, %llu mappings, %s%s, memo %llu/%llu]\n",
            trace.query, trace.engine, Ull(trace.mappings_examined),
            trace.ok ? "ok" : "failed", trace.cached ? ", cached" : "",
            Ull(trace.memo.row_hits),
            Ull(trace.memo.row_hits + trace.memo.row_misses));
      }
    }
  }

  /// The database changed shape, so every prepared statement (bound
  /// against the old vocabulary) and session engine is stale: drop the
  /// whole service. A fresh one spins up lazily on the next query.
  void ResetService() {
    sessions_.clear();
    service_.reset();
    current_ = SIZE_MAX;
    last_handle_ = 0;
  }

  Service& Svc() {
    if (service_ == nullptr) {
      service_ = std::make_unique<Service>(lb_.get());
    }
    return *service_;
  }

  Session* OpenNewSession(const std::string& engine) {
    SessionOptions opts;
    opts.engine = engine;
    opts.engine_options = options_;
    opts.use_result_cache = use_result_cache_;
    auto session = Svc().OpenSession(std::move(opts));
    if (!session.ok()) {
      Report(session.status());
      return nullptr;
    }
    sessions_.push_back(std::move(session).value());
    return sessions_.back().get();
  }

  /// The session a command routes to: an existing one matching `engine`
  /// and the shell's current knobs, else a newly opened one. Sessions are
  /// kept (and listed by `session`) so an engine's state — a
  /// multi-threaded sweep's pool, warmed executor scratch — survives across
  /// commands the way the old per-shell engine cache did.
  Session* SessionFor(const std::string& engine) {
    for (size_t i = 0; i < sessions_.size(); ++i) {
      const SessionOptions& o = sessions_[i]->options();
      if (o.engine == engine &&
          o.engine_options.exact.threads == options_.exact.threads &&
          o.use_result_cache == use_result_cache_ &&
          o.engine_options.exact.ra_dp_join_cap ==
              options_.exact.ra_dp_join_cap &&
          o.engine_options.exact.max_mappings ==
              options_.exact.max_mappings) {
        return sessions_[i].get();
      }
    }
    return OpenNewSession(engine);
  }

  /// `query`/`prepare`/`execute` go to the session pinned by `session use`
  /// (while valid), else to one matching the selected engine.
  Session* CurrentSession() {
    if (current_ < sessions_.size()) return sessions_[current_].get();
    return SessionFor(engine_name_);
  }

  std::unique_ptr<CwDatabase> lb_;
  std::string engine_name_ = "exact";
  EngineOptions options_;
  /// `set memo`: whether sessions serve answers stored on prepared
  /// statements. The kernel memo keeps its default (`ExactOptions::memo`).
  bool use_result_cache_ = true;

  /// The shell is a service client: `service_` borrows `lb_` and is
  /// declared after it (destroyed first).
  std::unique_ptr<Service> service_;
  std::vector<std::shared_ptr<Session>> sessions_;
  size_t current_ = SIZE_MAX;  // SIZE_MAX: auto-pick by engine
  PreparedHandle last_handle_ = 0;
};

int Run(int argc, char** argv) {
  Shell shell;
  bool batch = false;
  std::string script;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--batch") {
      batch = true;
    } else {
      script = arg;
    }
  }
  if (!script.empty()) {
    std::ifstream in(script);
    if (!in) {
      std::fprintf(stderr, "cannot open script '%s'\n", script.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!shell.Handle(line)) return 0;
    }
    if (batch) return 0;
  }
  std::string line;
  std::printf("lqdb shell — 'help' for commands\n");
  while (true) {
    std::printf("lqdb> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (!shell.Handle(line)) break;
  }
  return 0;
}

}  // namespace
}  // namespace lqdb

int main(int argc, char** argv) { return lqdb::Run(argc, argv); }
