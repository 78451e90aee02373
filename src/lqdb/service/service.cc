#include "lqdb/service/service.h"

#include <string_view>
#include <utility>

#include "lqdb/eval/bound_query.h"
#include "lqdb/logic/parser.h"

namespace lqdb {

std::string EngineOptionsFingerprint(const EngineOptions& options) {
  // Everything here either changes an answer outright (the approximation
  // knobs select different sound approximations in principle) or flips an
  // execution between an answer and `ResourceExhausted` (the mapping
  // budget), or shapes the compiled plan cached inside the prepared
  // statement (the join-order cap). Deliberately absent: `threads` and
  // `steal_chunk` (answers are bit-identical across thread counts and chunk
  // sizes — a candidate's membership is a property of the mapping space,
  // not the traversal) and the kernel-memo toggle (memo-on ≡ memo-off is
  // pinned by the differential suite).
  std::string key;
  key += "emm=" + std::to_string(options.exact.max_mappings);
  key += ";cap=" + std::to_string(options.exact.ra_dp_join_cap);
  key += ";aam=" + std::to_string(static_cast<int>(options.approx.alpha_mode));
  key += ";aen=" + std::to_string(static_cast<int>(options.approx.engine));
  key += ";ane=" + std::to_string(options.approx.materialize_ne ? 1 : 0);
  return key;
}

Service::Service(CwDatabase* db, ServiceOptions options)
    : db_(db),
      pool_(options.threads > 0 ? options.threads
                                : ThreadPool::DefaultThreads()) {}

Result<std::shared_ptr<Session>> Service::OpenSession(SessionOptions options) {
  std::unique_ptr<QueryEngine> engine;
  {
    ReaderLock db_lock(db_mu_);  // factories read the database
    LQDB_ASSIGN_OR_RETURN(engine, EngineRegistry::Global().Create(
                                      options.engine, db_,
                                      options.engine_options));
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<Session>(
      new Session(this, std::move(options), std::move(engine)));
}

ServiceStats Service::stats() const {
  ServiceStats out;
  out.prepares = prepares_.load();
  out.cache_hits = cache_hits_.load();
  out.cache_misses = cache_misses_.load();
  out.executions = executions_.load();
  out.async_executions = async_executions_.load();
  out.cancelled = cancelled_.load();
  out.cached_queries = cache_.size();
  out.sessions_opened = sessions_opened_.load();
  out.asserts = asserts_.load();
  out.retracts = retracts_.load();
  out.memo_row_hits = memo_row_hits_.load();
  out.memo_row_misses = memo_row_misses_.load();
  out.memo_images_skipped = memo_images_skipped_.load();
  out.result_hits = result_hits_.load();
  out.result_misses = result_misses_.load();
  out.result_invalidations = result_invalidations_.load();
  out.cached_results = cached_results_.load();
  {
    ReaderLock db_lock(db_mu_);
    out.db_version = db_version_;
  }
  return out;
}

uint64_t Service::db_version() const {
  ReaderLock db_lock(db_mu_);
  return db_version_;
}

void Service::BumpVersionLocked(PredId pred, bool constants_grew) {
  ++db_version_;
  if (pred >= pred_change_.size()) pred_change_.resize(pred + 1, 0);
  pred_change_[pred] = db_version_;
  if (constants_grew) global_change_ = db_version_;
}

Status Service::Assert(const std::string& pred,
                       const std::vector<std::string>& names) {
  WriterLock db_lock(db_mu_);
  const size_t constants_before = db_->num_constants();
  std::vector<std::string_view> views(names.begin(), names.end());
  LQDB_RETURN_IF_ERROR(db_->AddFact(pred, views));
  const PredId p = db_->vocab().FindPredicate(pred);
  BumpVersionLocked(p, db_->num_constants() != constants_before);
  asserts_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Service::Retract(const std::string& pred,
                        const std::vector<std::string>& names) {
  WriterLock db_lock(db_mu_);
  const PredId p = db_->vocab().FindPredicate(pred);
  if (p == Vocabulary::kNotFound) {
    return Status::NotFound("unknown predicate '" + pred + "'");
  }
  Tuple tuple;
  tuple.reserve(names.size());
  for (const std::string& name : names) {
    const ConstId c = db_->vocab().FindConstant(name);
    if (c == Vocabulary::kNotFound) {
      return Status::NotFound("unknown constant '" + name + "'");
    }
    tuple.push_back(c);
  }
  LQDB_RETURN_IF_ERROR(db_->RemoveFact(p, tuple));
  // Retraction never shrinks `C` (constants are permanent — domain closure
  // still ranges over every interned name), so only `pred`'s epoch moves.
  BumpVersionLocked(p, /*constants_grew=*/false);
  retracts_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<std::shared_ptr<PreparedQuery>> Service::PrepareInternal(
    const Session& session, const std::string& text, PreparedInfo* info) {
  prepares_.fetch_add(1, std::memory_order_relaxed);
  const std::string& engine = session.options_.engine;
  const std::string& options_key = session.options_key_;
  PreparedHandle handle = 0;
  if (std::shared_ptr<PreparedQuery> hit =
          cache_.Find(engine, options_key, text, &handle)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    info->handle = handle;
    info->cache_hit = true;
    return hit;
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);

  std::shared_ptr<PreparedQuery> entry;
  {
    // Exclusive: parsing interns constants/predicates into the shared
    // vocabulary, and the compiler reads the fact counts.
    WriterLock db_lock(db_mu_);
    const size_t constants_before = db_->num_constants();
    Result<Query> query = ParseQuery(db_->mutable_vocab(), text);
    if (db_->num_constants() != constants_before) {
      // Parsing interned a constant the database had never seen — even a
      // parse that then failed keeps it: `C` grew, and every Theorem 1
      // answer quantifies over all of `C`, so every stored answer is
      // potentially stale.
      ++db_version_;
      global_change_ = db_version_;
    }
    if (!query.ok()) return query.status();
    LQDB_ASSIGN_OR_RETURN(
        entry, PreparedQuery::Make(text, engine, options_key,
                                   std::move(query).value()));
    // Compile once at prepare time regardless of engine: exact executes
    // the reduced plan, and the other engines ignore it. The outcome is
    // recorded in the binding; a second-order body records "use the
    // Tarskian check". The session's join-order cap shapes the plan, so it
    // is part of the statement's options key.
    const RaCardinalities stats = RaCardinalitiesFor(
        *db_, session.options_.engine_options.exact.ra_dp_join_cap);
    (void)entry->mutable_bound()->CompileRaPlan(db_->vocab(), &stats);
  }

  bool inserted = false;
  entry = cache_.Insert(std::move(entry), &handle, &inserted);
  info->handle = handle;
  info->cache_hit = false;  // this caller paid the parse+compile
  return entry;
}

Result<PreparedInfo> Session::Prepare(const std::string& text) {
  PreparedInfo info;
  LQDB_RETURN_IF_ERROR(service_->PrepareInternal(*this, text, &info).status());
  prepares_.fetch_add(1, std::memory_order_relaxed);
  if (info.cache_hit) cache_hits_.fetch_add(1, std::memory_order_relaxed);
  return info;
}

Result<Relation> Session::Execute(PreparedHandle handle) {
  LQDB_ASSIGN_OR_RETURN(std::shared_ptr<PreparedQuery> pq,
                        service_->cache_.Resolve(handle));
  return Run(*pq, /*possible=*/false);
}

Result<Relation> Session::ExecutePossible(PreparedHandle handle) {
  LQDB_ASSIGN_OR_RETURN(std::shared_ptr<PreparedQuery> pq,
                        service_->cache_.Resolve(handle));
  return Run(*pq, /*possible=*/true);
}

Result<Relation> Session::Query(const std::string& text) {
  LQDB_ASSIGN_OR_RETURN(PreparedInfo info, Prepare(text));
  return Execute(info.handle);
}

Result<Relation> Session::Run(PreparedQuery& pq, bool possible) {
  // Lock order: database before session execution mutex, everywhere.
  ReaderLock db_lock(service_->db_mu_);
  MutexLock exec_lock(exec_mu_);
  last_trace_ = ExecutionTrace{};
  last_trace_.query = pq.text().c_str();
  // The engine that actually ran: a handle prepared on another session may
  // carry a different engine tag, but it executes on *this* session's.
  last_trace_.engine = options_.engine.c_str();
  last_trace_.possible = possible;
  executions_.fetch_add(1, std::memory_order_relaxed);
  service_->executions_.fetch_add(1, std::memory_order_relaxed);

  // The statement's slots hold answers of the engine and options it was
  // prepared under, so a foreign handle runs uncached.
  const bool cacheable = options_.use_result_cache &&
                         pq.engine() == options_.engine &&
                         pq.options_key() == options_key_;
  if (cacheable) {
    // The shared lock holds the change epochs still.
    std::optional<Relation> hit;
    switch (pq.FreshAnswer(possible, service_->global_change_,
                           service_->pred_change_, &hit)) {
      case AnswerLookup::kHit:
        service_->result_hits_.fetch_add(1, std::memory_order_relaxed);
        last_trace_.ok = true;
        last_trace_.cached = true;
        return std::move(*hit);
      case AnswerLookup::kStale:
        service_->result_invalidations_.fetch_add(1,
                                                  std::memory_order_relaxed);
        service_->cached_results_.fetch_sub(1, std::memory_order_relaxed);
        break;
      case AnswerLookup::kMiss:
        break;
    }
    service_->result_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  Result<Relation> out = possible ? engine_->PossibleAnswerBound(pq.bound())
                                  : engine_->AnswerBound(pq.bound());
  last_trace_.mappings_examined = engine_->last_mappings_examined();
  last_trace_.memo = engine_->last_memo_counters();
  service_->memo_row_hits_.fetch_add(last_trace_.memo.row_hits,
                                     std::memory_order_relaxed);
  service_->memo_row_misses_.fetch_add(last_trace_.memo.row_misses,
                                       std::memory_order_relaxed);
  service_->memo_images_skipped_.fetch_add(last_trace_.memo.images_skipped,
                                           std::memory_order_relaxed);
  last_trace_.ok = out.ok();
  // Returning the relation rather than `out` itself keeps `out` out of the
  // return slot the cached-answer return above also writes; sharing it
  // made gcc 12 warn -Wfree-nonheap-object on `out`'s destructor.
  if (!out.ok()) return out.status();
  // Still under the shared lock, so the epochs cannot have moved since the
  // engine read the database: the stored version is exact.
  if (cacheable &&
      service_->cached_results_.load(std::memory_order_relaxed) <
          Service::kMaxCachedResults &&
      pq.StoreAnswer(possible, *out, service_->db_version_)) {
    service_->cached_results_.fetch_add(1, std::memory_order_relaxed);
  }
  return std::move(*out);
}

Result<AsyncExecution> Session::ExecuteAsync(PreparedHandle handle,
                                             bool possible) {
  LQDB_ASSIGN_OR_RETURN(std::shared_ptr<PreparedQuery> pq,
                        service_->cache_.Resolve(handle));
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1 >
      options_.max_in_flight) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return Status::ResourceExhausted(
        "session has " + std::to_string(options_.max_in_flight) +
        " executions in flight");
  }
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  // The task owns a shared_ptr to the session, so a session dropped by its
  // client stays alive until its queued executions drain.
  std::shared_ptr<Session> self = shared_from_this();
  AsyncExecution out;
  out.cancel = cancel;
  out.result =
      service_->pool_.Async([self, pq, possible, cancel]() -> Result<Relation> {
        struct SlotGuard {
          Session* s;
          ~SlotGuard() { s->in_flight_.fetch_sub(1, std::memory_order_acq_rel); }
        } guard{self.get()};
        if (cancel->load()) {
          self->cancelled_.fetch_add(1, std::memory_order_relaxed);
          self->service_->cancelled_.fetch_add(1, std::memory_order_relaxed);
          return Status::Cancelled("execution cancelled before it started");
        }
        self->service_->async_executions_.fetch_add(1,
                                                    std::memory_order_relaxed);
        return self->Run(*pq, possible);
      });
  return out;
}

}  // namespace lqdb
