#ifndef LQDB_SERVICE_PREPARED_CACHE_H_
#define LQDB_SERVICE_PREPARED_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lqdb/eval/bound_query.h"
#include "lqdb/logic/query.h"
#include "lqdb/relational/relation.h"
#include "lqdb/util/annotations.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// Opaque identifier of a cached prepared query. 0 is never a valid handle,
/// so it doubles as "not prepared".
using PreparedHandle = uint64_t;

/// What `PreparedQuery::FreshAnswer` found in an answer slot.
enum class AnswerLookup {
  kMiss,   // the slot is empty
  kHit,    // a fresh answer, copied out
  kStale,  // an answer an update outdated; dropped from the slot
};

/// A query prepared once and executed many times: the parsed `Query`
/// pinned on the heap and its `BoundQuery` binding (which borrows the query
/// by address, hence the pinning — a `PreparedQuery` is never copied or
/// moved after `Make`). The service compiles the binding at prepare time
/// (`BoundQuery::CompileRaPlan`), so it carries the exact engine's one
/// compiled form: the RA plan and its semijoin reduction, or the recorded
/// reason there is none. The binding is immutable after preparation, so
/// any number of sessions may execute one statement concurrently and share
/// that reduced plan.
///
/// The statement also carries its answers: a certain and a possible slot,
/// each an answer of the statement's engine and options fingerprint plus
/// the database version it was computed at, under a per-statement mutex.
class PreparedQuery {
 public:
  /// Binds `query` in place. `text` is the source text; `engine` the engine
  /// name and `options_key` the engine-options fingerprint
  /// (`EngineOptionsFingerprint`) the statement was prepared under — all
  /// three are the cache key: a statement prepared under one options
  /// profile (join-order cap, evaluation budgets) must not be served to a
  /// session running a different one.
  static Result<std::shared_ptr<PreparedQuery>> Make(std::string text,
                                                     std::string engine,
                                                     std::string options_key,
                                                     Query query);

  const std::string& text() const { return text_; }
  const std::string& engine() const { return engine_; }
  const std::string& options_key() const { return options_key_; }
  const Query& query() const { return query_; }
  const BoundQuery& bound() const { return *bound_; }

  /// For the preparing thread only, before the entry is published to the
  /// cache (to run `CompileRaPlan`); immutable afterwards.
  BoundQuery* mutable_bound() { return &*bound_; }

  /// Looks up the certain (`possible` false) or possible answer. By
  /// Theorem 1 it is fixed by the query, `C` and the relations the query
  /// reads, so it is fresh iff its version is no older than
  /// `global_change` (the last growth of `C`) nor than `pred_change[p]`
  /// (the last update to `p`; none beyond the vector) for each `p` in
  /// `bound().predicates()`. A hit copies the answer into `*hit`; a stale
  /// answer is dropped.
  AnswerLookup FreshAnswer(bool possible, uint64_t global_change,
                           const std::vector<uint64_t>& pred_change,
                           std::optional<Relation>* hit);

  /// Stores `answer`, computed at database `version`, in the certain or
  /// possible slot unless the slot already holds one (the first answer
  /// stored wins). Returns whether it stored.
  bool StoreAnswer(bool possible, const Relation& answer, uint64_t version);

 private:
  PreparedQuery(std::string text, std::string engine, std::string options_key,
                Query query)
      : text_(std::move(text)),
        engine_(std::move(engine)),
        options_key_(std::move(options_key)),
        query_(std::move(query)) {}

  struct Answer {
    Relation relation;
    uint64_t version;
  };

  std::string text_;
  std::string engine_;
  std::string options_key_;
  Query query_;
  std::optional<BoundQuery> bound_;

  Mutex answers_mu_;
  /// [0] the certain answer, [1] the possible one.
  std::array<std::optional<Answer>, 2> answers_ GUARDED_BY(answers_mu_);
};

/// A mutex-sharded map from (engine, options fingerprint, query text) to
/// prepared statements, shared by every session of a `Service`: N sessions
/// replaying the same query pay parse + bind + RA-compile once. Handles
/// are dense per shard and stable for the cache's lifetime (nothing is
/// ever evicted — prepared statements are small and the key space is the
/// set of distinct query texts a workload actually runs).
///
/// Thread-safe. Insertion is first-writer-wins: when two sessions prepare
/// the same text concurrently, both end up with the same handle and entry,
/// and the loser's duplicate is dropped.
class PreparedCache {
 public:
  /// Looks up a prepared statement; returns it (filling `*handle`) or null.
  std::shared_ptr<PreparedQuery> Find(const std::string& engine,
                                      const std::string& options_key,
                                      const std::string& text,
                                      PreparedHandle* handle) const;

  /// Publishes `entry` under its (engine, options fingerprint, text) key.
  /// Returns the cached entry — `entry` itself when this call won, the
  /// earlier winner otherwise — and fills `*handle` with its handle.
  /// `*inserted` (when non-null) reports whether this call published.
  std::shared_ptr<PreparedQuery> Insert(std::shared_ptr<PreparedQuery> entry,
                                        PreparedHandle* handle,
                                        bool* inserted = nullptr);

  /// The statement behind a handle; `NotFound` for 0 or a handle this
  /// cache never issued.
  Result<std::shared_ptr<PreparedQuery>> Resolve(PreparedHandle handle) const;

  /// Number of cached statements (sums shard sizes; a snapshot under
  /// concurrent insertion).
  size_t size() const;

 private:
  struct Shard {
    mutable Mutex mu;
    /// engine + '\n' + options key + '\n' + text → handle (engine names
    /// and options keys contain no newline).
    std::unordered_map<std::string, PreparedHandle> by_key GUARDED_BY(mu);
    std::unordered_map<PreparedHandle, std::shared_ptr<PreparedQuery>>
        by_handle GUARDED_BY(mu);
    uint64_t next GUARDED_BY(mu) = 0;  // shard-local dense counter
  };

  static std::string KeyOf(const std::string& engine,
                           const std::string& options_key,
                           const std::string& text) {
    return engine + '\n' + options_key + '\n' + text;
  }
  static constexpr size_t kShards = 8;

  static size_t ShardOf(const std::string& key) {
    return std::hash<std::string>{}(key) % kShards;
  }
  /// Handles interleave across shards (`raw * kShards + shard + 1`) so a
  /// handle alone identifies its shard and 0 stays invalid.
  static PreparedHandle EncodeHandle(size_t shard, uint64_t raw) {
    return raw * kShards + shard + 1;
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace lqdb

#endif  // LQDB_SERVICE_PREPARED_CACHE_H_
