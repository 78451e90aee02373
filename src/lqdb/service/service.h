#ifndef LQDB_SERVICE_SERVICE_H_
#define LQDB_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/engine/engine.h"
#include "lqdb/relational/relation.h"
#include "lqdb/service/prepared_cache.h"
#include "lqdb/util/annotations.h"
#include "lqdb/util/result.h"
#include "lqdb/util/thread_pool.h"

namespace lqdb {

class Service;
class Session;

struct ServiceOptions {
  /// Worker threads of the shared async executor; 0 means hardware
  /// concurrency.
  int threads = 0;
};

/// Service-wide counters, all monotone since construction (except
/// `cached_results`/`cached_queries`, which are current sizes).
struct ServiceStats {
  uint64_t prepares = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t executions = 0;
  uint64_t async_executions = 0;
  uint64_t cancelled = 0;
  size_t cached_queries = 0;
  size_t sessions_opened = 0;
  /// Single-fact updates applied (`Service::Assert` / `Service::Retract`).
  uint64_t asserts = 0;
  uint64_t retracts = 0;
  /// Database version: bumped by every applied update.
  uint64_t db_version = 0;
  /// Answers stored on prepared statements: executions served from them or
  /// missing them, stale answers dropped, and answers stored now (see
  /// `PreparedQuery::FreshAnswer`).
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t result_invalidations = 0;
  size_t cached_results = 0;
  /// Kernel-memo traffic aggregated over every execution the service ran
  /// (see `KernelMemoCounters`); sweeps that ran without the memo — by
  /// default every compiled-check sweep (`ExactOptions::memo`) — add none.
  uint64_t memo_row_hits = 0;
  uint64_t memo_row_misses = 0;
  uint64_t memo_images_skipped = 0;
};

struct SessionOptions {
  /// Registry name of the engine this session evaluates with.
  std::string engine = "exact";
  /// Construction knobs forwarded to the engine factory.
  EngineOptions engine_options;
  /// Cap on queued-or-running `ExecuteAsync` calls per session; one more
  /// fails with `ResourceExhausted` until a slot frees up.
  int max_in_flight = 4;
  /// Serve (and feed) the answers stored on prepared statements — the
  /// cross-query result cache. Answers are identical either way — a stored
  /// answer is never served stale — so the toggle exists for A/B runs
  /// (`set memo on|off` in the shell switches this and nothing else; the
  /// kernel memo is `engine_options.exact.memo`).
  bool use_result_cache = true;
};

/// Fingerprint of every `EngineOptions` field that can change an answer
/// (or the answer-vs-error outcome) — the options part of the prepared-
/// statement key, and so of the answers a statement stores. Fields that
/// provably cannot change answers (thread count, the kernel memo toggle)
/// are deliberately excluded so sessions differing only in them share
/// statements and answers.
std::string EngineOptionsFingerprint(const EngineOptions& options);

/// Outcome of preparing a query on a session.
struct PreparedInfo {
  PreparedHandle handle = 0;
  /// Whether the statement came from the shared cache (no parse, bind or
  /// RA-compile ran).
  bool cache_hit = false;
};

/// What the session's most recent execution did. `query` points at the
/// statement's text and `engine` at the session's engine name; statements
/// are never evicted, so both stay valid while the session lives.
struct ExecutionTrace {
  const char* query = nullptr;
  const char* engine = nullptr;
  uint64_t mappings_examined = 0;
  bool possible = false;
  bool ok = false;
  /// Served from the answer stored on the statement (no engine ran;
  /// `mappings_examined` and `memo` are zero).
  bool cached = false;
  /// The engine's kernel-memo counters for this execution (zeros when its
  /// sweep ran without the memo).
  KernelMemoCounters memo;
};

/// A ticket for one in-flight `ExecuteAsync`. `Cancel` is best-effort: it
/// withdraws the execution only if no worker has started it yet (the task
/// then resolves to `StatusCode::kCancelled`); once running, the execution
/// completes normally.
struct AsyncExecution {
  std::future<Result<Relation>> result;
  std::shared_ptr<std::atomic<bool>> cancel;

  void Cancel() { cancel->store(true); }
};

/// One client's conversation with a `Service`: an engine choice plus
/// per-session options, the engine instance (built when the session
/// opens), the most recent execution's trace, and execution counters.
/// Sessions are the unit of concurrency — any number may execute
/// simultaneously against the shared database under its shared lock,
/// while calls *within* one session serialize on its execution mutex
/// (engines keep per-call state such as `last_mappings_examined` and are
/// not internally thread-safe).
///
/// Obtained from `Service::OpenSession` and kept alive by `shared_ptr`;
/// async executions extend the session's lifetime until they finish, but
/// sessions must not outlive their service.
class Session : public std::enable_shared_from_this<Session> {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses, binds and RA-compiles `text` — or returns the cached
  /// statement when any session already prepared it for this engine and
  /// options fingerprint.
  Result<PreparedInfo> Prepare(const std::string& text);

  /// Runs a prepared statement on this session's engine; `NotFound` for a
  /// handle the service never issued.
  Result<Relation> Execute(PreparedHandle handle);

  /// As `Execute` for the possible answer (tuples holding in at least one
  /// model); `Unimplemented` when the engine does not support it.
  Result<Relation> ExecutePossible(PreparedHandle handle);

  /// One-shot convenience: `Prepare` + `Execute`.
  Result<Relation> Query(const std::string& text);

  /// Schedules the execution on the service's shared pool and returns a
  /// future plus a cancellation flag. At most `max_in_flight` per session;
  /// the next call fails with `ResourceExhausted`.
  Result<AsyncExecution> ExecuteAsync(PreparedHandle handle,
                                      bool possible = false);

  const SessionOptions& options() const { return options_; }
  const EngineCapabilities& capabilities() const { return caps_; }

  /// Counters for this session only.
  uint64_t executions() const { return executions_.load(); }
  uint64_t prepares() const { return prepares_.load(); }
  uint64_t cache_hits() const { return cache_hits_.load(); }
  uint64_t cancelled() const { return cancelled_.load(); }
  int in_flight() const { return in_flight_.load(); }

  /// The most recent execution's trace. Stable only while no execution is
  /// running on this session (single-threaded clients like the shell) —
  /// which is why this read is exempt from the lock contract on
  /// `last_trace_` rather than taking `exec_mu_`.
  const ExecutionTrace& last_trace() const NO_THREAD_SAFETY_ANALYSIS {
    return last_trace_;
  }

 private:
  friend class Service;

  Session(Service* service, SessionOptions options,
          std::unique_ptr<QueryEngine> engine)
      : service_(service),
        options_(std::move(options)),
        options_key_(EngineOptionsFingerprint(options_.engine_options)),
        caps_(engine->capabilities()),
        engine_(std::move(engine)) {}

  /// Locks the database shared, then the execution mutex, and runs one
  /// execution: from the answer stored on `pq` when it is fresh, else on
  /// the engine. A statement prepared under another engine or options
  /// fingerprint runs on this session's engine, uncached.
  Result<Relation> Run(PreparedQuery& pq, bool possible);

  Service* service_;
  SessionOptions options_;
  /// `EngineOptionsFingerprint` of this session's engine options, computed
  /// once — part of every prepared-statement key this session looks up.
  std::string options_key_;
  EngineCapabilities caps_;

  /// Serializes executions within this session; always acquired after the
  /// service's database lock.
  Mutex exec_mu_;
  std::unique_ptr<QueryEngine> engine_ GUARDED_BY(exec_mu_);

  ExecutionTrace last_trace_ GUARDED_BY(exec_mu_);

  std::atomic<int> in_flight_{0};
  std::atomic<uint64_t> executions_{0};
  std::atomic<uint64_t> prepares_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cancelled_{0};
};

/// The query service: many concurrent sessions over one logical database,
/// sharing a prepared-statement cache (each statement carries its answers)
/// and an async executor pool.
///
/// Thread-safety contract. Engines only read the database. Its only
/// writers are the parse of a prepare miss (parsing interns names into the
/// vocabulary) and `Assert`/`Retract`; they take an internal
/// reader/writer lock exclusively. Everything else — opening a session
/// (which builds its engine), cache hits, executions on every engine —
/// proceeds under the shared lock, so N sessions executing prepared
/// statements never contend beyond the engines' own work.
///
/// The service must outlive its sessions; its destructor drains the pool,
/// so pending async executions finish (or resolve as cancelled) first.
class Service {
 public:
  /// At most this many answers are stored across all statements; a full
  /// service stores no more. Concurrent stores may overshoot it by at most
  /// one answer per executing session.
  static constexpr size_t kMaxCachedResults = 4096;

  /// Borrows `db`, which must outlive the service. The database should not
  /// be touched directly while the service exists.
  explicit Service(CwDatabase* db, ServiceOptions options = {});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Creates a session and builds its engine under the shared database
  /// lock; fails (`NotFound`) for an unregistered engine name, or with the
  /// engine factory's error.
  Result<std::shared_ptr<Session>> OpenSession(SessionOptions options = {});

  /// Applies a single-fact update behind the writer lock, interning new
  /// constant names as *known* constants (`Assert`) or removing a stored
  /// fact (`Retract`; `NotFound` when the predicate or fact is unknown).
  /// Either bumps the database version and the updated relation's change
  /// epoch, so dependent stored answers go stale — and, when an `Assert`
  /// grows the constant set, the global epoch, since the Theorem 1 answer
  /// of *every* query quantifies over all of `C`.
  Status Assert(const std::string& pred,
                const std::vector<std::string>& names);
  Status Retract(const std::string& pred,
                 const std::vector<std::string>& names);

  const CwDatabase& db() const { return *db_; }
  int threads() const { return pool_.num_threads(); }

  /// The current database version (updates applied since construction).
  uint64_t db_version() const;

  ServiceStats stats() const;

 private:
  friend class Session;

  /// The shared prepare path (see `Session::Prepare`), keyed by the
  /// session's engine and options fingerprint.
  Result<std::shared_ptr<PreparedQuery>> PrepareInternal(
      const Session& session, const std::string& text, PreparedInfo* info);

  /// Bumps the change epochs after a write to `pred` under the exclusive
  /// database lock; `constants_grew` additionally raises the global epoch.
  void BumpVersionLocked(PredId pred, bool constants_grew) REQUIRES(db_mu_);

  CwDatabase* db_;

  /// Guards the database: shared for engine construction and executions,
  /// exclusive for parsing and updates. Acquired before any session's
  /// `exec_mu_`.
  mutable SharedMutex db_mu_;

  PreparedCache cache_;

  /// Change epochs (written under the exclusive lock, read under shared):
  /// `db_version_` counts applied updates; `global_change_` /
  /// `pred_change_[p]` record the version *after* the last change
  /// affecting every query / queries reading `p`.
  uint64_t db_version_ GUARDED_BY(db_mu_) = 0;
  uint64_t global_change_ GUARDED_BY(db_mu_) = 0;
  std::vector<uint64_t> pred_change_ GUARDED_BY(db_mu_);

  std::atomic<uint64_t> asserts_{0};
  std::atomic<uint64_t> retracts_{0};
  std::atomic<uint64_t> memo_row_hits_{0};
  std::atomic<uint64_t> memo_row_misses_{0};
  std::atomic<uint64_t> memo_images_skipped_{0};
  std::atomic<uint64_t> prepares_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> executions_{0};
  std::atomic<uint64_t> async_executions_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<size_t> sessions_opened_{0};
  std::atomic<uint64_t> result_hits_{0};
  std::atomic<uint64_t> result_misses_{0};
  std::atomic<uint64_t> result_invalidations_{0};
  std::atomic<size_t> cached_results_{0};

  /// Declared last: destroyed first, draining queued async executions
  /// while the cache and counters above are still alive.
  ThreadPool pool_;
};

}  // namespace lqdb

#endif  // LQDB_SERVICE_SERVICE_H_
