#include "lqdb/service/prepared_cache.h"

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

std::shared_ptr<PreparedQuery> PreparedCache::Resolve(PreparedHandle handle)
    const {
  if (handle == 0) return nullptr;
  const Shard& shard = shards_[(handle - 1) % kShards];
  MutexLock lock(shard.mu);
  auto it = shard.by_handle.find(handle);
  return it == shard.by_handle.end() ? nullptr : it->second;
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
