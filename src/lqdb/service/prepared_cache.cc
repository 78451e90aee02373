#include "lqdb/service/prepared_cache.h"

#include <algorithm>
#include <string>
#include <utility>

namespace lqdb {

Result<std::shared_ptr<PreparedQuery>> PreparedQuery::Make(
    std::string text, std::string engine, std::string options_key,
    Query query) {
  // The binding borrows the query by address, so the query must reach its
  // final storage (inside the heap-pinned PreparedQuery) before Bind runs.
  std::shared_ptr<PreparedQuery> out(new PreparedQuery(
      std::move(text), std::move(engine), std::move(options_key),
      std::move(query)));
  LQDB_ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(out->query_));
  out->bound_.emplace(std::move(bound));
  return out;
}

AnswerLookup PreparedQuery::FreshAnswer(
    bool possible, uint64_t global_change,
    const std::vector<uint64_t>& pred_change, std::optional<Relation>* hit) {
  MutexLock lock(answers_mu_);
  std::optional<Answer>& slot = answers_[possible ? 1 : 0];
  if (!slot.has_value()) return AnswerLookup::kMiss;
  const uint64_t version = slot->version;
  const std::vector<PredId>& reads = bound().predicates();
  // A relation beyond `pred_change` was never updated.
  const bool fresh =
      version >= global_change &&
      std::all_of(reads.begin(), reads.end(), [&](PredId p) {
        return p >= pred_change.size() || version >= pred_change[p];
      });
  if (!fresh) {
    slot.reset();
    return AnswerLookup::kStale;
  }
  hit->emplace(slot->relation);
  return AnswerLookup::kHit;
}

bool PreparedQuery::StoreAnswer(bool possible, const Relation& answer,
                                uint64_t version) {
  MutexLock lock(answers_mu_);
  std::optional<Answer>& slot = answers_[possible ? 1 : 0];
  if (slot.has_value()) return false;
  slot.emplace(Answer{answer, version});
  return true;
}

std::shared_ptr<PreparedQuery> PreparedCache::Find(
    const std::string& engine, const std::string& options_key,
    const std::string& text, PreparedHandle* handle) const {
  const std::string key = KeyOf(engine, options_key, text);
  const Shard& shard = shards_[ShardOf(key)];
  MutexLock lock(shard.mu);
  auto it = shard.by_key.find(key);
  if (it == shard.by_key.end()) return nullptr;
  *handle = it->second;
  return shard.by_handle.at(it->second);
}

std::shared_ptr<PreparedQuery> PreparedCache::Insert(
    std::shared_ptr<PreparedQuery> entry, PreparedHandle* handle,
    bool* inserted) {
  const std::string key =
      KeyOf(entry->engine(), entry->options_key(), entry->text());
  const size_t index = ShardOf(key);
  Shard& shard = shards_[index];
  MutexLock lock(shard.mu);
  auto [it, fresh] = shard.by_key.emplace(key, PreparedHandle{0});
  if (!fresh) {
    // Lost the publish race; the earlier winner keeps the handle so every
    // holder of it sees one statement identity.
    if (inserted != nullptr) *inserted = false;
    *handle = it->second;
    return shard.by_handle.at(it->second);
  }
  const PreparedHandle h = EncodeHandle(index, shard.next++);
  it->second = h;
  shard.by_handle.emplace(h, entry);
  if (inserted != nullptr) *inserted = true;
  *handle = h;
  return entry;
}

Result<std::shared_ptr<PreparedQuery>> PreparedCache::Resolve(
    PreparedHandle handle) const {
  if (handle != 0) {
    const Shard& shard = shards_[(handle - 1) % kShards];
    MutexLock lock(shard.mu);
    auto it = shard.by_handle.find(handle);
    if (it != shard.by_handle.end()) return it->second;
  }
  return Status::NotFound("no prepared query with handle " +
                          std::to_string(handle));
}

size_t PreparedCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.by_handle.size();
  }
  return total;
}

}  // namespace lqdb
