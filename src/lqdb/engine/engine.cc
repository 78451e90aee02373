#include "lqdb/engine/engine.h"

namespace lqdb {

Result<Relation> QueryEngine::PossibleAnswer(const Query& query) {
  (void)query;
  return Status::Unimplemented("engine '" + name() +
                               "' does not answer possibility queries");
}

Result<Relation> QueryEngine::AnswerBound(const BoundQuery& bound) {
  return Answer(bound.query());
}

Result<Relation> QueryEngine::PossibleAnswerBound(const BoundQuery& bound) {
  return PossibleAnswer(bound.query());
}

EngineRegistry& EngineRegistry::Global() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    RegisterBuiltinEngines(r);
    return r;
  }();
  return *registry;
}

Status EngineRegistry::Register(std::string name,
                                EngineCapabilities capabilities,
                                EngineFactory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("engine name must be nonempty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("engine factory must be callable");
  }
  auto [it, inserted] = entries_.emplace(
      std::move(name), Entry{capabilities, std::move(factory)});
  if (!inserted) {
    return Status::AlreadyExists("engine '" + it->first +
                                 "' is already registered");
  }
  return Status::OK();
}

bool EngineRegistry::Has(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    (void)entry;
    names.push_back(name);
  }
  return names;  // std::map iterates in sorted order
}

Result<EngineCapabilities> EngineRegistry::CapabilitiesOf(
    std::string_view name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no engine named '" + std::string(name) + "'");
  }
  return it->second.capabilities;
}

Result<std::unique_ptr<QueryEngine>> EngineRegistry::Create(
    std::string_view name, const CwDatabase* lb,
    const EngineOptions& options) const {
  if (lb == nullptr) {
    return Status::InvalidArgument("database must be non-null");
  }
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const std::string& n : Names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return Status::NotFound("no engine named '" + std::string(name) +
                            "' (registered: " + known + ")");
  }
  return it->second.factory(lb, options);
}

}  // namespace lqdb
