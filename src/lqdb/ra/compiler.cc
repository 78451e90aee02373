#include "lqdb/ra/compiler.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <utility>

namespace lqdb {

Result<PlanPtr> RaCompiler::Compile(const Query& query) {
  LQDB_ASSIGN_OR_RETURN(PlanPtr plan, CompileFormula(query.body()));
  std::set<VarId> head(query.head().begin(), query.head().end());
  LQDB_ASSIGN_OR_RETURN(plan, PadTo(std::move(plan), head));
  return Plan::Project(std::move(plan), query.head());
}

Result<PlanPtr> RaCompiler::CompileFormula(const FormulaPtr& f) {
  if (f == nullptr) return Status::InvalidArgument("null formula");
  switch (f->kind()) {
    case FormulaKind::kTrue:
      return Unit();
    case FormulaKind::kFalse:
      return Plan::ConstTuples({}, {});
    case FormulaKind::kEquals:
      return CompileEquals(f);
    case FormulaKind::kAtom:
      return Plan::Scan(*vocab_, f->pred(), f->terms());
    case FormulaKind::kNot:
      return CompileNot(f);
    case FormulaKind::kAnd:
      return CompileAnd(f);
    case FormulaKind::kOr:
      return CompileOr(f);
    case FormulaKind::kImplies:
      return CompileImplies(f);
    case FormulaKind::kIff:
      return CompileIff(f);
    case FormulaKind::kExists:
      return CompileExists(f);
    case FormulaKind::kForall:
      return CompileForall(f);
    case FormulaKind::kExistsPred:
    case FormulaKind::kForallPred:
      return Status::Unimplemented(
          "second-order quantification cannot be compiled to relational "
          "algebra");
  }
  return Status::Internal("unknown formula kind");
}

Result<PlanPtr> RaCompiler::CompileEquals(const FormulaPtr& f) {
  const Term& lhs = f->terms()[0];
  const Term& rhs = f->terms()[1];
  if (lhs.is_variable() && rhs.is_variable()) {
    if (lhs.var() == rhs.var()) return Plan::DomainScan(lhs.var());
    return Plan::EqDomain(lhs.var(), rhs.var());
  }
  if (lhs.is_variable()) {
    return Plan::ConstTuples({lhs.var()}, {{rhs.constant()}});
  }
  if (rhs.is_variable()) {
    return Plan::ConstTuples({rhs.var()}, {{lhs.constant()}});
  }
  return Plan::ConstCompare(lhs.constant(), rhs.constant());
}

double RaCompiler::Estimate(const PlanPtr& plan) {
  auto it = estimate_cache_.find(plan);
  if (it != estimate_cache_.end()) return it->second;
  const double domain = std::max(1.0, stats_.domain_size);
  double est = 1.0;
  switch (plan->kind()) {
    case PlanKind::kScan: {
      est = stats_.RelationSize(plan->pred());
      // Every constant filter and repeated-variable filter keeps roughly a
      // 1/|domain| fraction of the stored rows.
      std::set<VarId> seen;
      for (const Term& t : plan->scan_columns()) {
        if (t.is_constant() || !seen.insert(t.var()).second) est /= domain;
      }
      break;
    }
    case PlanKind::kConstTuples:
      est = static_cast<double>(plan->rows().size());
      break;
    case PlanKind::kConstCompare:
      est = 0.5;  // one row or none
      break;
    case PlanKind::kDomainScan:
      est = domain;
      break;
    case PlanKind::kEqDomain:
      est = domain;
      break;
    case PlanKind::kJoin: {
      const double l = Estimate(plan->left());
      const double r = Estimate(plan->right());
      std::set<VarId> lattrs(plan->left()->schema().begin(),
                             plan->left()->schema().end());
      est = l * r;
      for (VarId v : plan->right()->schema()) {
        if (lattrs.count(v) > 0) est /= domain;
      }
      break;
    }
    case PlanKind::kAntiJoin:
    case PlanKind::kSemiJoin:
      est = Estimate(plan->left());  // at most the left side survives
      break;
    case PlanKind::kParam:
      // Bound at runtime with the surviving Theorem 1 candidate set; a
      // domain's worth of rows is the steady-state order of magnitude.
      est = domain;
      break;
    case PlanKind::kUnion:
      est = Estimate(plan->left()) + Estimate(plan->right());
      break;
    case PlanKind::kProject:
      est = Estimate(plan->child());
      break;
  }
  estimate_cache_.emplace(plan, est);
  return est;
}

Result<PlanPtr> RaCompiler::CompileAnd(const FormulaPtr& f) {
  // Free variables of the whole conjunction: the anti-join accumulator must
  // carry all of them before negative conjuncts are applied.
  std::set<VarId> all_free = FreeVariables(f);

  std::vector<FormulaPtr> positives;
  std::vector<FormulaPtr> negatives;  // the bodies under kNot
  for (const auto& c : f->children()) {
    if (c->kind() == FormulaKind::kNot) {
      negatives.push_back(c->child());
    } else {
      positives.push_back(c);
    }
  }

  // Compile the positive conjuncts, then pick a join order: small
  // conjunctions get exact DP enumeration over connected subgraphs, large
  // ones the linear greedy pass (`dp_join_cap` is the cutover).
  std::vector<PlanPtr> plans;
  plans.reserve(positives.size());
  for (const auto& p : positives) {
    LQDB_ASSIGN_OR_RETURN(PlanPtr plan, CompileFormula(p));
    plans.push_back(std::move(plan));
  }

  PlanPtr acc;
  if (plans.size() == 1) {
    acc = plans[0];
  } else if (plans.size() >= 2) {
    // The DP uses 32-bit subset masks, so it is structurally capped at 20
    // conjuncts no matter how high the knob is turned.
    const bool use_dp = plans.size() <= stats_.dp_join_cap &&
                        plans.size() <= 20;
    if (use_dp) {
      LQDB_ASSIGN_OR_RETURN(acc, OrderJoinsDp(plans));
    } else {
      LQDB_ASSIGN_OR_RETURN(acc, OrderJoinsGreedy(plans));
    }
    JoinOrderInfo info;
    info.conjuncts = plans.size();
    info.used_dp = use_dp;
    info.estimated_rows = Estimate(acc);
    join_order_log_.push_back(info);
  }
  if (acc == nullptr) {
    LQDB_ASSIGN_OR_RETURN(acc, DomainProduct(all_free));
  } else {
    LQDB_ASSIGN_OR_RETURN(acc, PadTo(std::move(acc), all_free));
  }
  for (const auto& n : negatives) {
    LQDB_ASSIGN_OR_RETURN(PlanPtr plan, CompileFormula(n));
    LQDB_ASSIGN_OR_RETURN(acc,
                          Plan::AntiJoin(std::move(acc), std::move(plan)));
  }
  return acc;
}

Result<PlanPtr> RaCompiler::OrderJoinsGreedy(const std::vector<PlanPtr>& plans) {
  // Seed the accumulator with the smallest estimated input, then at every
  // step join the partner that minimizes the estimated size of the joined
  // accumulator. Partners sharing an attribute with the accumulated schema
  // win over disconnected ones outright, so Cartesian products only appear
  // when the join graph is disconnected.
  const double domain = std::max(1.0, stats_.domain_size);
  PlanPtr acc;
  double acc_est = 1.0;
  std::set<VarId> bound;
  std::vector<bool> used(plans.size(), false);
  for (size_t step = 0; step < plans.size(); ++step) {
    size_t pick = plans.size();
    double pick_est = 0.0;
    bool pick_connected = false;
    for (size_t i = 0; i < plans.size(); ++i) {
      if (used[i]) continue;
      size_t shared = 0;
      for (VarId v : plans[i]->schema()) shared += bound.count(v);
      const bool connected = shared > 0;
      double joined = acc_est * Estimate(plans[i]);
      for (size_t s = 0; s < shared; ++s) joined /= domain;
      if (pick == plans.size() || (connected && !pick_connected) ||
          (connected == pick_connected && joined < pick_est)) {
        pick = i;
        pick_est = joined;
        pick_connected = connected;
      }
    }
    used[pick] = true;
    for (VarId v : plans[pick]->schema()) bound.insert(v);
    if (acc == nullptr) {
      acc = plans[pick];
      acc_est = Estimate(plans[pick]);
    } else {
      LQDB_ASSIGN_OR_RETURN(acc, Plan::Join(std::move(acc), plans[pick]));
      acc_est = pick_est;
    }
  }
  return acc;
}

Result<PlanPtr> RaCompiler::OrderJoinsDp(const std::vector<PlanPtr>& plans) {
  // DPsub over the conjunct join graph (conjuncts are vertices, shared
  // variables edges), kuzu-style but sized for Theorem 1 workloads: for
  // every connected subset S the best cost[S] is the cheapest way to
  // produce S from a *connected* split S1 ⊎ S2 with an edge between the
  // halves, under the C_out cost model (cost = Σ estimated intermediate
  // sizes). Cross products therefore never appear inside a connected
  // component; disconnected components are combined afterwards, smallest
  // estimate first. Deterministic: subsets ascend numerically and ties
  // keep the first winner.
  const size_t n = plans.size();
  const uint32_t full = static_cast<uint32_t>((1ull << n) - 1);
  const double domain = std::max(1.0, stats_.domain_size);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  auto lowest_index = [](uint32_t mask) {
    size_t i = 0;
    while (!(mask & (1u << i))) ++i;
    return i;
  };

  // Which conjuncts carry each variable, then the adjacency masks.
  std::map<VarId, uint32_t> var_occ;
  for (size_t i = 0; i < n; ++i) {
    for (VarId v : plans[i]->schema()) var_occ[v] |= 1u << i;
  }
  std::vector<uint32_t> adj(n, 0);
  for (const auto& [v, occ] : var_occ) {
    for (size_t i = 0; i < n; ++i) {
      if (occ & (1u << i)) adj[i] |= occ;
    }
  }
  for (size_t i = 0; i < n; ++i) adj[i] &= ~(1u << i);

  // Estimated size of every subset, built incrementally: joining conjunct
  // i into the rest R keeps one 1/|domain| factor per variable of i that R
  // already carries — the same independence model as `Estimate(kJoin)`.
  std::vector<double> sest(static_cast<size_t>(full) + 1, 1.0);
  for (uint32_t s = 1; s <= full; ++s) {
    const size_t i = lowest_index(s);
    const uint32_t rest = s & (s - 1);
    double e = sest[rest] * Estimate(plans[i]);
    if (rest != 0) {
      for (VarId v : plans[i]->schema()) {
        if (var_occ[v] & rest) e /= domain;
      }
    }
    sest[s] = e;
  }

  std::vector<double> cost(static_cast<size_t>(full) + 1, kInf);
  std::vector<uint32_t> split(static_cast<size_t>(full) + 1, 0);
  for (size_t i = 0; i < n; ++i) cost[1u << i] = 0.0;

  // Connected components of the join graph.
  std::vector<uint32_t> comps;
  {
    uint32_t seen = 0;
    for (size_t i = 0; i < n; ++i) {
      if (seen & (1u << i)) continue;
      uint32_t comp = 1u << i;
      for (;;) {
        uint32_t grown = comp;
        for (size_t j = 0; j < n; ++j) {
          if (comp & (1u << j)) grown |= adj[j];
        }
        if (grown == comp) break;
        comp = grown;
      }
      seen |= comp;
      comps.push_back(comp);
    }
  }

  for (const uint32_t comp : comps) {
    // Ascending submask enumeration: every proper submask of s is
    // numerically smaller, so both halves of a split are already final.
    for (uint32_t s = (0u - comp) & comp; s != 0; s = (s - comp) & comp) {
      if ((s & (s - 1)) == 0) {
        if (s == comp) break;
        continue;  // singleton
      }
      const uint32_t low = s & (0u - s);
      double best = kInf;
      uint32_t best_split = 0;
      // Canonical splits: the half holding s's lowest conjunct is s1.
      for (uint32_t s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
        if (!(s1 & low)) continue;
        const uint32_t s2 = s ^ s1;
        if (cost[s1] == kInf || cost[s2] == kInf) continue;
        bool touch = false;
        for (size_t i = 0; i < n && !touch; ++i) {
          if (s1 & (1u << i)) touch = (adj[i] & s2) != 0;
        }
        if (!touch) continue;
        const double c = cost[s1] + cost[s2] + sest[s];
        if (c < best) {
          best = c;
          best_split = s1;
        }
      }
      cost[s] = best;
      split[s] = best_split;
      if (s == comp) break;
    }
    // A connected component always has a connected split chain; if the
    // model ever disagrees, fall back to the greedy order rather than
    // fail the compile.
    if (cost[comp] == kInf) return OrderJoinsGreedy(plans);
  }

  std::function<Result<PlanPtr>(uint32_t)> build =
      [&](uint32_t s) -> Result<PlanPtr> {
    if ((s & (s - 1)) == 0) return plans[lowest_index(s)];
    // C_out is symmetric in the two halves, so put the smaller estimated
    // side on the left — the convention the greedy pass establishes (and
    // tests pin); the executor picks the build side by actual size anyway.
    uint32_t s1 = split[s];
    uint32_t s2 = s ^ split[s];
    if (sest[s2] < sest[s1]) std::swap(s1, s2);
    LQDB_ASSIGN_OR_RETURN(PlanPtr l, build(s1));
    LQDB_ASSIGN_OR_RETURN(PlanPtr r, build(s2));
    return Plan::Join(std::move(l), std::move(r));
  };

  // Combine components ascending by estimated size (stable on ties), so
  // the unavoidable cross products multiply small intermediates first.
  std::stable_sort(comps.begin(), comps.end(),
                   [&](uint32_t a, uint32_t b) { return sest[a] < sest[b]; });
  PlanPtr acc;
  for (const uint32_t comp : comps) {
    LQDB_ASSIGN_OR_RETURN(PlanPtr part, build(comp));
    if (acc == nullptr) {
      acc = std::move(part);
    } else {
      LQDB_ASSIGN_OR_RETURN(acc, Plan::Join(std::move(acc), std::move(part)));
    }
  }
  return acc;
}

std::string RaCompiler::AnnotatePlan(const PlanPtr& plan) {
  return plan->ToString(*vocab_, [this](const PlanPtr& node) {
    char est[48];
    std::snprintf(est, sizeof(est), "  ~%.3g rows", Estimate(node));
    return std::string(est);
  });
}

Result<PlanPtr> RaCompiler::CompileOr(const FormulaPtr& f) {
  std::set<VarId> all_free = FreeVariables(f);
  PlanPtr acc;
  for (const auto& c : f->children()) {
    LQDB_ASSIGN_OR_RETURN(PlanPtr plan, CompileFormula(c));
    LQDB_ASSIGN_OR_RETURN(plan, PadTo(std::move(plan), all_free));
    if (acc == nullptr) {
      acc = std::move(plan);
    } else {
      LQDB_ASSIGN_OR_RETURN(acc, Plan::Union(std::move(acc), std::move(plan)));
    }
  }
  return acc;
}

Result<PlanPtr> RaCompiler::Complement(PlanPtr plan,
                                       const std::set<VarId>& free) {
  LQDB_ASSIGN_OR_RETURN(PlanPtr universe, DomainProduct(free));
  return Plan::AntiJoin(std::move(universe), std::move(plan));
}

Result<PlanPtr> RaCompiler::CompileNot(const FormulaPtr& f) {
  const FormulaPtr& body = f->child();
  LQDB_ASSIGN_OR_RETURN(PlanPtr plan, CompileFormula(body));
  return Complement(std::move(plan), FreeVariables(body));
}

Result<PlanPtr> RaCompiler::CompileImplies(const FormulaPtr& f) {
  // a → b  ==  ¬a ∨ b over the union of both sides' free variables; each
  // child is compiled exactly once.
  const std::set<VarId> all_free = FreeVariables(f);
  LQDB_ASSIGN_OR_RETURN(PlanPtr lhs, CompileFormula(f->child(0)));
  LQDB_ASSIGN_OR_RETURN(PlanPtr not_lhs, Complement(std::move(lhs),
                                                    FreeVariables(f->child(0))));
  LQDB_ASSIGN_OR_RETURN(not_lhs, PadTo(std::move(not_lhs), all_free));
  LQDB_ASSIGN_OR_RETURN(PlanPtr rhs, CompileFormula(f->child(1)));
  LQDB_ASSIGN_OR_RETURN(rhs, PadTo(std::move(rhs), all_free));
  return Plan::Union(std::move(not_lhs), std::move(rhs));
}

Result<PlanPtr> RaCompiler::CompileIff(const FormulaPtr& f) {
  // a ↔ b  ==  (a ∧ b) ∨ (¬a ∧ ¬b). The formula-level rewrite this
  // replaces compiled each child twice, making plan size exponential in
  // nesting depth; here each child is compiled once and the compiled
  // (immutable) plan is shared between the positive and negative branch,
  // so the result is a DAG of size linear in the formula.
  const std::set<VarId> all_free = FreeVariables(f);
  const std::set<VarId> lhs_free = FreeVariables(f->child(0));
  const std::set<VarId> rhs_free = FreeVariables(f->child(1));
  LQDB_ASSIGN_OR_RETURN(PlanPtr lhs, CompileFormula(f->child(0)));
  LQDB_ASSIGN_OR_RETURN(PlanPtr rhs, CompileFormula(f->child(1)));
  LQDB_ASSIGN_OR_RETURN(PlanPtr both, Plan::Join(lhs, rhs));
  LQDB_ASSIGN_OR_RETURN(both, PadTo(std::move(both), all_free));
  LQDB_ASSIGN_OR_RETURN(PlanPtr not_lhs, Complement(std::move(lhs), lhs_free));
  LQDB_ASSIGN_OR_RETURN(PlanPtr not_rhs, Complement(std::move(rhs), rhs_free));
  LQDB_ASSIGN_OR_RETURN(
      PlanPtr neither, Plan::Join(std::move(not_lhs), std::move(not_rhs)));
  LQDB_ASSIGN_OR_RETURN(neither, PadTo(std::move(neither), all_free));
  return Plan::Union(std::move(both), std::move(neither));
}

Result<PlanPtr> RaCompiler::ExistsPlan(PlanPtr plan, VarId var) {
  std::vector<VarId> kept;
  bool had = false;
  for (VarId v : plan->schema()) {
    if (v == var) {
      had = true;
    } else {
      kept.push_back(v);
    }
  }
  if (!had) {
    // The bound variable is vacuous in the body, but ∃x φ still demands a
    // witness from the domain: over an *empty* domain the quantifier is
    // false, so φ's plan cannot be returned unchanged. Joining against a
    // domain scan empties the result exactly when the domain is empty; the
    // projection below drops the witness column again.
    LQDB_ASSIGN_OR_RETURN(plan,
                          Plan::Join(std::move(plan), Plan::DomainScan(var)));
  }
  return Plan::Project(std::move(plan), std::move(kept));
}

Result<PlanPtr> RaCompiler::CompileExists(const FormulaPtr& f) {
  LQDB_ASSIGN_OR_RETURN(PlanPtr plan, CompileFormula(f->child()));
  return ExistsPlan(std::move(plan), f->var());
}

Result<PlanPtr> RaCompiler::CompileForall(const FormulaPtr& f) {
  // ∀x φ  ==  ¬∃x ¬φ, built directly over a single compilation of φ (the
  // formula-level rewrite this replaces re-entered the compiler on a
  // wrapped copy of the subtree, duplicating work and plan nodes).
  const FormulaPtr& child = f->child();
  if (child->kind() == FormulaKind::kImplies) {
    // Guarded universal, the common shape: ∀x (a → b) == ¬∃x (a ∧ ¬b).
    // The violating set a ∧ ¬b is one anti-join of a against b (keyed on
    // b's free variables), whereas complementing the compiled implication
    // (an ¬a ∨ b union) materializes a domain-product universe over all
    // of the body's free variables — |C|^k rows per image.
    const std::set<VarId> body_free = FreeVariables(child);
    LQDB_ASSIGN_OR_RETURN(PlanPtr guard, CompileFormula(child->child(0)));
    LQDB_ASSIGN_OR_RETURN(guard, PadTo(std::move(guard), body_free));
    LQDB_ASSIGN_OR_RETURN(PlanPtr then, CompileFormula(child->child(1)));
    LQDB_ASSIGN_OR_RETURN(
        PlanPtr violating, Plan::AntiJoin(std::move(guard), std::move(then)));
    LQDB_ASSIGN_OR_RETURN(PlanPtr witness,
                          ExistsPlan(std::move(violating), f->var()));
    return Complement(std::move(witness), FreeVariables(f));
  }
  const std::set<VarId> body_free = FreeVariables(child);
  LQDB_ASSIGN_OR_RETURN(PlanPtr body, CompileFormula(child));
  LQDB_ASSIGN_OR_RETURN(PlanPtr violating,
                        Complement(std::move(body), body_free));
  LQDB_ASSIGN_OR_RETURN(PlanPtr witness,
                        ExistsPlan(std::move(violating), f->var()));
  return Complement(std::move(witness), FreeVariables(f));
}

Result<PlanPtr> RaCompiler::Unit() {
  return Plan::ConstTuples({}, {{}});
}

Result<PlanPtr> RaCompiler::DomainProduct(const std::set<VarId>& vars) {
  if (vars.empty()) return Unit();
  PlanPtr acc;
  for (VarId v : vars) {
    PlanPtr scan = Plan::DomainScan(v);
    if (acc == nullptr) {
      acc = std::move(scan);
    } else {
      LQDB_ASSIGN_OR_RETURN(acc, Plan::Join(std::move(acc), std::move(scan)));
    }
  }
  return acc;
}

Result<PlanPtr> RaCompiler::PadTo(PlanPtr plan, const std::set<VarId>& vars) {
  std::set<VarId> have(plan->schema().begin(), plan->schema().end());
  for (VarId v : vars) {
    if (have.count(v) == 0) {
      LQDB_ASSIGN_OR_RETURN(
          plan, Plan::Join(std::move(plan), Plan::DomainScan(v)));
    }
  }
  return plan;
}

}  // namespace lqdb
