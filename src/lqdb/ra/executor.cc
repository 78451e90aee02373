#include "lqdb/ra/executor.h"

#include <algorithm>
#include <utility>

namespace lqdb {

namespace {

/// Position of each attribute within a schema (schemas are tiny, so a
/// linear scan beats a hash map — and this only runs once per plan node).
uint32_t PositionOf(const std::vector<VarId>& schema, VarId v) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == v) return static_cast<uint32_t>(i);
  }
  return FlatTable::kNone;
}

}  // namespace

Result<RaTable> RaExecutor::Execute(const PlanPtr& plan) {
  LQDB_ASSIGN_OR_RETURN(const RaTableView* root, ExecuteView(plan));
  return RaTable(root->schema, root->rows.ToRelation());
}

Result<const RaTableView*> RaExecutor::ExecuteView(const PlanPtr& plan) {
  Reload();
  if (map_ != nullptr && map_->size() < value_bound_) {
    return Status::InvalidArgument(
        "the mapping read through does not cover every database value");
  }
  ++epoch_;
  return Exec(plan);
}

void RaExecutor::Reload() {
  if (facts_version_ == db_->version()) return;
  facts_version_ = db_->version();
  facts_.clear();
  fact_spans_.assign(db_->vocab().num_predicates(), FactSpan{});
  for (PredId p = 0; p < fact_spans_.size(); ++p) {
    if (!db_->HasRelation(p)) continue;
    const Relation& rel = db_->relation(p);
    fact_spans_[p] = {facts_.size(), rel.size()};
    for (const Tuple& t : rel.tuples()) {
      facts_.insert(facts_.end(), t.begin(), t.end());
    }
  }
  // The domain holds every constant's value; stored tuples normally lie
  // inside it too, but `SetRelation` does not check that.
  value_bound_ = 0;
  for (Value v : db_->domain()) {
    value_bound_ = std::max(value_bound_, size_t{v} + 1);
  }
  for (Value v : facts_) value_bound_ = std::max(value_bound_, size_t{v} + 1);
}

Result<Value> RaExecutor::ConstantValue(ConstId c) const {
  LQDB_ASSIGN_OR_RETURN(const Value v, db_->LookupConstant(c));
  return Read(v);
}

Result<const RaTableView*> RaExecutor::Exec(const PlanPtr& plan) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  // unordered_map never moves elements on rehash, so the reference stays
  // valid while children execute into their own slots.
  Slot& slot = slots_[plan.get()];
  if (slot.epoch == epoch_) return &slot.table;
  LQDB_RETURN_IF_ERROR(ExecNode(*plan, &slot));
  // Stamped only after success: a failed node stays stale and is rebuilt
  // (not served) if a later execution reaches it again.
  slot.epoch = epoch_;
  return &slot.table;
}

Status RaExecutor::ExecNode(const Plan& plan, Slot* slot) {
  switch (plan.kind()) {
    case PlanKind::kScan: return ExecScan(plan, slot);
    case PlanKind::kConstTuples: return ExecConstTuples(plan, slot);
    case PlanKind::kConstCompare: return ExecConstCompare(plan, slot);
    case PlanKind::kDomainScan: return ExecDomainScan(plan, slot);
    case PlanKind::kEqDomain: return ExecEqDomain(plan, slot);
    case PlanKind::kJoin: return ExecJoin(plan, slot);
    case PlanKind::kAntiJoin:
    case PlanKind::kSemiJoin: return ExecSemiOrAntiJoin(plan, slot);
    case PlanKind::kUnion: return ExecUnion(plan, slot);
    case PlanKind::kProject: return ExecProject(plan, slot);
    case PlanKind::kParam: return ExecParam(plan, slot);
  }
  return Status::Internal("unknown plan kind");
}

void RaExecutor::PrepareMeta(const Plan& plan, Slot* slot) {
  switch (plan.kind()) {
    case PlanKind::kScan: {
      const TermList& cols = plan.scan_columns();
      // First occurrence of each variable; later occurrences become
      // equality filters, constants become selections.
      for (size_t i = 0; i < cols.size(); ++i) {
        if (cols[i].is_constant()) {
          slot->const_filters.emplace_back(static_cast<uint32_t>(i),
                                           cols[i].constant());
          continue;
        }
        uint32_t first = FlatTable::kNone;
        for (size_t j = 0; j < i; ++j) {
          if (cols[j].is_variable() && cols[j].var() == cols[i].var()) {
            first = static_cast<uint32_t>(j);
            break;
          }
        }
        if (first != FlatTable::kNone) {
          slot->extra.push_back(static_cast<uint32_t>(i));
          slot->extra.push_back(first);
        }
      }
      for (VarId v : plan.schema()) {
        for (size_t i = 0; i < cols.size(); ++i) {
          if (cols[i].is_variable() && cols[i].var() == v) {
            slot->key_a.push_back(static_cast<uint32_t>(i));
            break;
          }
        }
      }
      break;
    }
    case PlanKind::kJoin: {
      const std::vector<VarId>& ls = plan.left()->schema();
      const std::vector<VarId>& rs = plan.right()->schema();
      for (size_t i = 0; i < ls.size(); ++i) {
        const uint32_t rpos = PositionOf(rs, ls[i]);
        if (rpos != FlatTable::kNone) {
          slot->key_a.push_back(static_cast<uint32_t>(i));
          slot->key_b.push_back(rpos);
        }
      }
      // Right columns new to the output, in output order (the output
      // schema is left's columns followed by right's new ones).
      for (size_t i = ls.size(); i < plan.schema().size(); ++i) {
        slot->extra.push_back(PositionOf(rs, plan.schema()[i]));
      }
      break;
    }
    case PlanKind::kAntiJoin:
    case PlanKind::kSemiJoin: {
      const std::vector<VarId>& ls = plan.left()->schema();
      const std::vector<VarId>& rs = plan.right()->schema();
      for (size_t i = 0; i < ls.size(); ++i) {
        const uint32_t rpos = PositionOf(rs, ls[i]);
        if (rpos != FlatTable::kNone) {
          slot->key_a.push_back(static_cast<uint32_t>(i));
          slot->key_b.push_back(rpos);
        }
      }
      break;
    }
    case PlanKind::kUnion: {
      const std::vector<VarId>& rs = plan.right()->schema();
      for (VarId v : plan.schema()) slot->key_a.push_back(PositionOf(rs, v));
      break;
    }
    case PlanKind::kProject: {
      const std::vector<VarId>& cs = plan.child()->schema();
      for (VarId v : plan.schema()) slot->key_a.push_back(PositionOf(cs, v));
      break;
    }
    case PlanKind::kConstTuples:
    case PlanKind::kConstCompare:
    case PlanKind::kDomainScan:
    case PlanKind::kEqDomain:
    case PlanKind::kParam:
      break;
  }
}

void RaExecutor::ResetOut(const Plan& plan, Slot* slot) {
  if (!slot->meta_ready) {
    PrepareMeta(plan, slot);
    slot->table.schema = plan.schema();
    slot->meta_ready = true;
  }
  slot->table.rows.Reset(static_cast<uint32_t>(plan.schema().size()));
}

Status RaExecutor::ExecScan(const Plan& plan, Slot* slot) {
  ResetOut(plan, slot);
  // Selections compare mapped values: a stored row passes a constant
  // column when the mapping sends its value where it sends the constant,
  // and a repeated variable when the mapping merges the two values.
  std::vector<Value>& consts = key_scratch_;
  consts.resize(slot->const_filters.size());
  for (size_t i = 0; i < consts.size(); ++i) {
    LQDB_ASSIGN_OR_RETURN(consts[i],
                          ConstantValue(slot->const_filters[i].second));
  }
  const size_t arity = plan.scan_columns().size();
  const FactSpan span = plan.pred() < fact_spans_.size()
                            ? fact_spans_[plan.pred()]
                            : FactSpan{};
  row_scratch_.resize(slot->key_a.size());
  for (size_t r = 0; r < span.rows; ++r) {
    const Value* t = facts_.data() + span.offset + r * arity;
    bool keep = true;
    for (size_t i = 0; keep && i < consts.size(); ++i) {
      keep = Read(t[slot->const_filters[i].first]) == consts[i];
    }
    for (size_t i = 0; keep && i < slot->extra.size(); i += 2) {
      keep = Read(t[slot->extra[i]]) == Read(t[slot->extra[i + 1]]);
    }
    if (!keep) continue;
    for (size_t i = 0; i < slot->key_a.size(); ++i) {
      row_scratch_[i] = Read(t[slot->key_a[i]]);
    }
    slot->table.rows.Insert(row_scratch_.data());
  }
  return Status::OK();
}

Status RaExecutor::ExecConstTuples(const Plan& plan, Slot* slot) {
  ResetOut(plan, slot);
  row_scratch_.resize(plan.schema().size());
  for (const auto& row : plan.rows()) {
    for (size_t i = 0; i < row.size(); ++i) {
      LQDB_ASSIGN_OR_RETURN(row_scratch_[i], ConstantValue(row[i]));
    }
    slot->table.rows.Insert(row_scratch_.data());
  }
  return Status::OK();
}

Status RaExecutor::ExecConstCompare(const Plan& plan, Slot* slot) {
  ResetOut(plan, slot);
  LQDB_ASSIGN_OR_RETURN(const Value lhs, ConstantValue(plan.compare_lhs()));
  LQDB_ASSIGN_OR_RETURN(const Value rhs, ConstantValue(plan.compare_rhs()));
  if (lhs == rhs) slot->table.rows.Insert(row_scratch_.data());
  return Status::OK();
}

Status RaExecutor::ExecDomainScan(const Plan& plan, Slot* slot) {
  ResetOut(plan, slot);
  for (Value v : db_->domain()) {
    const Value mapped = Read(v);
    slot->table.rows.Insert(&mapped);
  }
  return Status::OK();
}

Status RaExecutor::ExecEqDomain(const Plan& plan, Slot* slot) {
  ResetOut(plan, slot);
  for (Value v : db_->domain()) {
    const Value pair[2] = {Read(v), Read(v)};
    slot->table.rows.Insert(pair);
  }
  return Status::OK();
}

Status RaExecutor::ExecJoin(const Plan& plan, Slot* slot) {
  LQDB_ASSIGN_OR_RETURN(const RaTableView* left, Exec(plan.left()));
  LQDB_ASSIGN_OR_RETURN(const RaTableView* right, Exec(plan.right()));
  ResetOut(plan, slot);

  // Index the smaller side on the shared key; probe with the larger.
  const bool left_build = left->rows.size() <= right->rows.size();
  const FlatTable& build = left_build ? left->rows : right->rows;
  const FlatTable& probe = left_build ? right->rows : left->rows;
  const std::vector<uint32_t>& build_key =
      left_build ? slot->key_a : slot->key_b;
  const std::vector<uint32_t>& probe_key =
      left_build ? slot->key_b : slot->key_a;
  slot->index.Build(&build, build_key.data(), build_key.size());

  const size_t lar = plan.left()->schema().size();
  row_scratch_.resize(plan.schema().size());
  key_scratch_.resize(probe_key.size());
  for (size_t p = 0; p < probe.size(); ++p) {
    const Value* pr = probe.row(p);
    for (size_t i = 0; i < probe_key.size(); ++i) {
      key_scratch_[i] = pr[probe_key[i]];
    }
    for (uint32_t b = slot->index.First(key_scratch_.data());
         b != JoinIndex::kNone; b = slot->index.Next(b)) {
      const Value* br = build.row(b);
      const Value* l = left_build ? br : pr;
      const Value* r = left_build ? pr : br;
      for (size_t i = 0; i < lar; ++i) row_scratch_[i] = l[i];
      for (size_t i = 0; i < slot->extra.size(); ++i) {
        row_scratch_[lar + i] = r[slot->extra[i]];
      }
      slot->table.rows.Insert(row_scratch_.data());
    }
  }
  return Status::OK();
}

Status RaExecutor::ExecSemiOrAntiJoin(const Plan& plan, Slot* slot) {
  LQDB_ASSIGN_OR_RETURN(const RaTableView* left, Exec(plan.left()));
  LQDB_ASSIGN_OR_RETURN(const RaTableView* right, Exec(plan.right()));
  ResetOut(plan, slot);

  // Hash the right side's keys; a semijoin keeps the left rows whose key
  // is present, an anti-join those whose key is absent.
  const bool keep_present = plan.kind() == PlanKind::kSemiJoin;
  const size_t nkey = slot->key_a.size();
  slot->key_set.Reset(static_cast<uint32_t>(nkey));
  key_scratch_.resize(nkey);
  for (size_t r = 0; r < right->rows.size(); ++r) {
    const Value* row = right->rows.row(r);
    for (size_t i = 0; i < nkey; ++i) key_scratch_[i] = row[slot->key_b[i]];
    slot->key_set.Insert(key_scratch_.data());
  }
  for (size_t l = 0; l < left->rows.size(); ++l) {
    const Value* row = left->rows.row(l);
    for (size_t i = 0; i < nkey; ++i) key_scratch_[i] = row[slot->key_a[i]];
    if (slot->key_set.Contains(key_scratch_.data()) == keep_present) {
      slot->table.rows.Insert(row);
    }
  }
  return Status::OK();
}

Status RaExecutor::ExecUnion(const Plan& plan, Slot* slot) {
  LQDB_ASSIGN_OR_RETURN(const RaTableView* left, Exec(plan.left()));
  LQDB_ASSIGN_OR_RETURN(const RaTableView* right, Exec(plan.right()));
  ResetOut(plan, slot);

  // Copy (not alias) the left child: it lives in its own slot and other
  // references to the shared node must still see its rows.
  for (size_t l = 0; l < left->rows.size(); ++l) {
    slot->table.rows.Insert(left->rows.row(l));
  }
  row_scratch_.resize(plan.schema().size());
  for (size_t r = 0; r < right->rows.size(); ++r) {
    const Value* row = right->rows.row(r);
    for (size_t i = 0; i < slot->key_a.size(); ++i) {
      row_scratch_[i] = row[slot->key_a[i]];
    }
    slot->table.rows.Insert(row_scratch_.data());
  }
  return Status::OK();
}

Status RaExecutor::ExecProject(const Plan& plan, Slot* slot) {
  LQDB_ASSIGN_OR_RETURN(const RaTableView* child, Exec(plan.child()));
  ResetOut(plan, slot);
  row_scratch_.resize(plan.schema().size());
  for (size_t c = 0; c < child->rows.size(); ++c) {
    const Value* row = child->rows.row(c);
    for (size_t i = 0; i < slot->key_a.size(); ++i) {
      row_scratch_[i] = row[slot->key_a[i]];
    }
    slot->table.rows.Insert(row_scratch_.data());
  }
  return Status::OK();
}

Status RaExecutor::ExecParam(const Plan& plan, Slot* slot) {
  auto it = params_.find(&plan);
  if (it == params_.end()) {
    return Status::InvalidArgument(
        "plan parameter executed without a bound table (BindParam)");
  }
  ResetOut(plan, slot);
  const size_t arity = plan.schema().size();
  for (size_t r = 0; r < it->second.count; ++r) {
    slot->table.rows.Insert(it->second.rows + r * arity);
  }
  return Status::OK();
}

}  // namespace lqdb
