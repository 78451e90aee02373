#include "lqdb/ra/plan.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <unordered_map>

namespace lqdb {

namespace {

std::shared_ptr<Plan> NewNode(PlanKind kind) {
  struct Helper : Plan {
    explicit Helper(PlanKind k) : Plan(k) {}
  };
  return std::make_shared<Helper>(kind);
}

}  // namespace

Result<PlanPtr> Plan::Scan(const Vocabulary& vocab, PredId pred,
                           TermList columns) {
  if (pred >= vocab.num_predicates()) {
    return Status::NotFound("unknown predicate id in scan");
  }
  if (static_cast<int>(columns.size()) != vocab.PredicateArity(pred)) {
    return Status::InvalidArgument("scan arity mismatch for predicate '" +
                                   vocab.PredicateName(pred) + "'");
  }
  auto node = NewNode(PlanKind::kScan);
  node->pred_ = pred;
  node->scan_columns_ = std::move(columns);
  std::set<VarId> seen;
  for (const Term& t : node->scan_columns_) {
    if (t.is_variable() && seen.insert(t.var()).second) {
      node->schema_.push_back(t.var());
    }
  }
  return PlanPtr(node);
}

Result<PlanPtr> Plan::ConstTuples(std::vector<VarId> schema,
                                  std::vector<std::vector<ConstId>> rows) {
  std::set<VarId> seen(schema.begin(), schema.end());
  if (seen.size() != schema.size()) {
    return Status::InvalidArgument("ConstTuples schema must be distinct");
  }
  for (const auto& row : rows) {
    if (row.size() != schema.size()) {
      return Status::InvalidArgument("ConstTuples row arity mismatch");
    }
  }
  auto node = NewNode(PlanKind::kConstTuples);
  node->schema_ = std::move(schema);
  node->rows_ = std::move(rows);
  return PlanPtr(node);
}

PlanPtr Plan::ConstCompare(ConstId lhs, ConstId rhs) {
  auto node = NewNode(PlanKind::kConstCompare);
  node->compare_lhs_ = lhs;
  node->compare_rhs_ = rhs;
  return node;
}

PlanPtr Plan::DomainScan(VarId attr) {
  auto node = NewNode(PlanKind::kDomainScan);
  node->schema_ = {attr};
  return node;
}

Result<PlanPtr> Plan::EqDomain(VarId lhs, VarId rhs) {
  if (lhs == rhs) {
    return Status::InvalidArgument("EqDomain attributes must differ");
  }
  auto node = NewNode(PlanKind::kEqDomain);
  node->schema_ = {lhs, rhs};
  return PlanPtr(node);
}

Result<PlanPtr> Plan::Join(PlanPtr left, PlanPtr right) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("join child must not be null");
  }
  auto node = NewNode(PlanKind::kJoin);
  node->schema_ = left->schema();
  std::set<VarId> seen(node->schema_.begin(), node->schema_.end());
  for (VarId v : right->schema()) {
    if (seen.insert(v).second) node->schema_.push_back(v);
  }
  node->children_ = {std::move(left), std::move(right)};
  return PlanPtr(node);
}

Result<PlanPtr> Plan::AntiJoin(PlanPtr left, PlanPtr right) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("antijoin child must not be null");
  }
  auto node = NewNode(PlanKind::kAntiJoin);
  node->schema_ = left->schema();
  node->children_ = {std::move(left), std::move(right)};
  return PlanPtr(node);
}

Result<PlanPtr> Plan::SemiJoin(PlanPtr left, PlanPtr right) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("semijoin child must not be null");
  }
  auto node = NewNode(PlanKind::kSemiJoin);
  node->schema_ = left->schema();
  node->children_ = {std::move(left), std::move(right)};
  return PlanPtr(node);
}

Result<PlanPtr> Plan::Param(std::vector<VarId> schema) {
  std::set<VarId> seen(schema.begin(), schema.end());
  if (seen.size() != schema.size()) {
    return Status::InvalidArgument("Param schema must be distinct");
  }
  auto node = NewNode(PlanKind::kParam);
  node->schema_ = std::move(schema);
  return PlanPtr(node);
}

Result<PlanPtr> Plan::Union(PlanPtr left, PlanPtr right) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("union child must not be null");
  }
  std::set<VarId> l(left->schema().begin(), left->schema().end());
  std::set<VarId> r(right->schema().begin(), right->schema().end());
  if (l != r) {
    return Status::InvalidArgument(
        "union children must have the same attribute set");
  }
  auto node = NewNode(PlanKind::kUnion);
  node->schema_ = left->schema();
  node->children_ = {std::move(left), std::move(right)};
  return PlanPtr(node);
}

Result<PlanPtr> Plan::Project(PlanPtr child, std::vector<VarId> attrs) {
  if (child == nullptr) {
    return Status::InvalidArgument("project child must not be null");
  }
  std::set<VarId> child_attrs(child->schema().begin(), child->schema().end());
  std::set<VarId> seen;
  for (VarId v : attrs) {
    if (child_attrs.count(v) == 0) {
      return Status::InvalidArgument(
          "projection attribute missing from child schema");
    }
    if (!seen.insert(v).second) {
      return Status::InvalidArgument("projection attributes must be distinct");
    }
  }
  auto node = NewNode(PlanKind::kProject);
  node->schema_ = std::move(attrs);
  node->children_ = {std::move(child)};
  return PlanPtr(node);
}

namespace {

/// Counts, for every node reachable below `plan`, the plan edges into it.
/// A node is walked on its first visit only; the caller seeds `parents`
/// with the root, so even a (corrupt) cycle ends.
void CountParents(const Plan& plan,
                  std::unordered_map<const Plan*, int>* parents) {
  for (const PlanPtr& c : plan.children()) {
    const auto [it, first] = parents->try_emplace(c.get(), 0);
    ++it->second;
    if (first) CountParents(*c, parents);
  }
}

}  // namespace

size_t Plan::NumUniqueNodes() const {
  std::unordered_map<const Plan*, int> parents = {{this, 0}};
  CountParents(*this, &parents);
  return parents.size();
}

std::string Plan::NodeLabel(const Vocabulary& vocab) const {
  auto schema_str = [&vocab](const std::vector<VarId>& schema) {
    std::string s = "[";
    for (size_t i = 0; i < schema.size(); ++i) {
      if (i > 0) s += ", ";
      s += vocab.VariableName(schema[i]);
    }
    return s + "]";
  };
  switch (kind_) {
    case PlanKind::kScan: {
      std::string out = "Scan " + vocab.PredicateName(pred_) + "(";
      for (size_t i = 0; i < scan_columns_.size(); ++i) {
        if (i > 0) out += ", ";
        const Term& t = scan_columns_[i];
        out += t.is_variable() ? vocab.VariableName(t.var())
                               : vocab.ConstantName(t.constant());
      }
      return out + ") -> " + schema_str(schema_);
    }
    case PlanKind::kConstTuples:
      return "Const " + schema_str(schema_) + " rows=" +
             std::to_string(rows_.size());
    case PlanKind::kConstCompare:
      return "ConstCompare " + vocab.ConstantName(compare_lhs_) + " = " +
             vocab.ConstantName(compare_rhs_);
    case PlanKind::kDomainScan:
      return "DomainScan -> " + schema_str(schema_);
    case PlanKind::kEqDomain:
      return "EqDomain -> " + schema_str(schema_);
    case PlanKind::kJoin:
      return "Join -> " + schema_str(schema_);
    case PlanKind::kAntiJoin:
      return "AntiJoin -> " + schema_str(schema_);
    case PlanKind::kSemiJoin:
      return "SemiJoin -> " + schema_str(schema_);
    case PlanKind::kUnion:
      return "Union -> " + schema_str(schema_);
    case PlanKind::kProject:
      return "Project -> " + schema_str(schema_);
    case PlanKind::kParam:
      return "Param -> " + schema_str(schema_);
  }
  return "?";
}

std::string Plan::ToString(const Vocabulary& vocab,
                           const NodeSuffix& suffix) const {
  std::unordered_map<const Plan*, int> parents = {{this, 0}};
  CountParents(*this, &parents);
  std::unordered_map<const Plan*, size_t> tags;  // shared node -> its #k
  std::string out;
  std::function<void(const PlanPtr&, size_t)> print =
      [&](const PlanPtr& node, size_t depth) {
        out.append(2 * depth, ' ');
        if (parents.at(node.get()) > 1) {
          const auto [it, first] =
              tags.try_emplace(node.get(), tags.size() + 1);
          out += "#" + std::to_string(it->second) + " ";
          if (!first) {
            out += node->NodeLabel(vocab) + "  (shared)\n";
            return;
          }
        }
        out += node->NodeLabel(vocab);
        if (suffix) out += suffix(node);
        out += '\n';
        for (const PlanPtr& c : node->children()) print(c, depth + 1);
      };
  print(shared_from_this(), 0);
  return out;
}

}  // namespace lqdb
