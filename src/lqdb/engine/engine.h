#ifndef LQDB_ENGINE_ENGINE_H_
#define LQDB_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lqdb/approx/approx.h"
#include "lqdb/cwdb/cw_database.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/exact/brute.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/query.h"
#include "lqdb/relational/relation.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// What a query engine promises about its answers, relative to the certain
/// answer `Q(LB)` of §2.1. The differential harness derives its agreement
/// obligations from these flags: two `sound && complete` engines must agree
/// exactly; a sound engine's answer must be ⊆ every exact engine's. No flag
/// describes writes: every engine only reads the database.
struct EngineCapabilities {
  /// Every returned tuple is in the certain answer (no false positives).
  bool sound = false;
  /// Every certain-answer tuple is returned (no false negatives).
  bool complete = false;
  /// Polynomial data complexity (the §5 approximation; Theorem 14) as
  /// opposed to the co-NP Theorem 1 enumeration.
  bool polynomial = false;
  /// `PossibleAnswer` is implemented.
  bool supports_possible = false;

  /// Sound and complete: computes exactly `Q(LB)`.
  bool exact() const { return sound && complete; }
};

/// Per-engine construction knobs, a superset of every builtin engine's
/// options — each factory picks out what it understands. Keeping one bag
/// (instead of per-engine variants) is what lets the shell, the benches and
/// the differential harness configure any engine by name.
struct EngineOptions {
  /// Every Theorem 1 engine ("brute", "batched-exact", "exact").
  ExactOptions exact;
  ApproxOptions approx;
};

/// A query evaluation strategy over one CW logical database. Engines are
/// created per database via `EngineRegistry::Create` and borrow the
/// database, which must outlive them. Engines only read the database:
/// every call sees it as it is at that call, so one engine serves across
/// updates, and engines on one database may run concurrently while nothing
/// writes it.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// The registry key this engine was created under.
  virtual const std::string& name() const = 0;

  virtual const EngineCapabilities& capabilities() const = 0;

  /// The engine's answer to `query` — a relation over the constants `C`.
  virtual Result<Relation> Answer(const Query& query) = 0;

  /// `Answer` over a pre-bound query — the prepared-statement path used by
  /// the service layer. The binding (and the query it borrows) must outlive
  /// the call and is only read. The default re-enters `Answer` on the
  /// underlying query; Theorem 1 engines override it to skip re-binding
  /// (and, for exact, re-compiling).
  virtual Result<Relation> AnswerBound(const BoundQuery& bound);

  /// `PossibleAnswer` over a pre-bound query (see `AnswerBound`).
  virtual Result<Relation> PossibleAnswerBound(const BoundQuery& bound);

  /// Membership of one candidate tuple in the engine's answer;
  /// `InvalidArgument` when the candidate's arity differs from the query's
  /// or it names a constant the database does not have.
  virtual Result<bool> Contains(const Query& query,
                                const Tuple& candidate) = 0;

  /// Tuples holding in at least one model of the theory. `Unimplemented`
  /// unless `capabilities().supports_possible`.
  virtual Result<Relation> PossibleAnswer(const Query& query);

  /// Mappings examined by the most recent call for Theorem 1 engines; 0
  /// for engines that do not enumerate mappings.
  virtual uint64_t last_mappings_examined() const { return 0; }

  /// Kernel-memo counters of the most recent call (eval/kernel_memo.h);
  /// zeros for engines without memoization or with the memo disabled.
  virtual KernelMemoCounters last_memo_counters() const { return {}; }
};

/// Builds an engine over `lb`. Factories only read the database (the §5
/// approximation builds its extended language `L′` privately, per call)
/// and may fail (e.g. on an invalid database).
using EngineFactory = std::function<Result<std::unique_ptr<QueryEngine>>(
    const CwDatabase* lb, const EngineOptions& options)>;

/// A string-keyed registry of engine factories. The builtin engines
/// ("brute", "batched-exact", "exact", "approx", "physical") are
/// registered on first access of `Global()`; libraries and tests may
/// register more — a registered engine is automatically reachable from the
/// shell (`set engine NAME`), the benches and the differential harness.
class EngineRegistry {
 public:
  /// The process-wide registry, with builtins pre-registered. Thread-safe
  /// to read after initialization; registration is not synchronized and
  /// should happen at startup.
  static EngineRegistry& Global();

  /// Registers a factory under `name`; fails with `AlreadyExists` when the
  /// key is taken.
  Status Register(std::string name, EngineCapabilities capabilities,
                  EngineFactory factory);

  bool Has(std::string_view name) const;

  /// Registered names in sorted order.
  std::vector<std::string> Names() const;

  /// Capability flags of a registered engine (without building one).
  Result<EngineCapabilities> CapabilitiesOf(std::string_view name) const;

  /// Instantiates the named engine over `lb`, which the factory and the
  /// engine only read; `NotFound` for unknown names.
  Result<std::unique_ptr<QueryEngine>> Create(
      std::string_view name, const CwDatabase* lb,
      const EngineOptions& options = {}) const;

 private:
  struct Entry {
    EngineCapabilities capabilities;
    EngineFactory factory;
  };
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Registers the builtin engines into `registry` (idempotent per registry;
/// called by `EngineRegistry::Global()`):
///
///   - "brute"         — all mappings `h : C → C` (Theorem 1 literally)
///   - "batched-exact" — canonical kernel-partition enumeration, each image
///                       built and checked by the batched Tarskian
///                       evaluator (the reference the differential suite
///                       compares against)
///   - "exact"         — canonical enumeration with the per-image check
///                       compiled once, by the query's binding, to a
///                       semijoin-reduced relational-algebra plan read
///                       through each mapping (first-order fragment;
///                       second-order queries take the Tarskian check)
///   - "approx"        — the §5 sound polynomial approximation, over an
///                       `L′` and `Ph₂(LB)` it builds per call
///   - "physical"      — naive evaluation over `Ph₁` (ignores nulls;
///                       neither sound nor complete — a baseline)
///
/// The three Theorem 1 engines share one sweep driver (exact/sweep.h);
/// `ExactOptions::threads` fans the canonical enumeration of "exact" and
/// "batched-exact" across a work-stealing pool.
void RegisterBuiltinEngines(EngineRegistry* registry);

}  // namespace lqdb

#endif  // LQDB_ENGINE_ENGINE_H_
