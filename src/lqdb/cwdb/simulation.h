#ifndef LQDB_CWDB_SIMULATION_H_
#define LQDB_CWDB_SIMULATION_H_

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/logic/query.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// The *precise* simulation of §3.2 (Theorem 3): for every query `Q` over
/// `L` there is a second-order query `Q'` over `L' = L ∪ {NE}` with
///
///     Q(LB) = Q'(Ph₂(LB)).
///
/// `Q'` universally quantifies a binary predicate variable `H`
/// (representing a mapping h : C → C) and one primed copy `P'` per
/// predicate `P` occurring in the query (representing h(I(P))):
///
///     Q' = (z) . ∀H ∀P'₁ ... ∀P'ₘ ( ρ ∧ θ → ψ )
///
/// where ρ forces `H` to be a total functional relation that never merges
/// NE-related values (h respects T), θ forces each `P'ᵢ` to be the H-image
/// of `Pᵢ`, and ψ = ∃x₁..xₖ (H(z₁,x₁) ∧ ... ∧ H(zₖ,xₖ) ∧ φ') with φ' the
/// query body over the primed predicates.
///
/// Two details the paper leaves implicit are made explicit here (and
/// validated against `ExactEvaluator` in tests/simulation_test.cc):
///   * **Constants**: `h(Ph₁)` interprets a constant `c` as `h(c)`, while
///     `Ph₂` interprets it as `c` itself, so ψ also binds one image
///     variable `w_c` with `H(c, w_c)` per constant of φ and φ' speaks
///     about the images. (The paper's bare `P ↦ P'` substitution is the
///     special case of constant-free queries.)
///   * **Quantifier relativization**: the domain of `h(Ph₁)` is `h(C)`,
///     not `C`, so every quantifier of φ' is relativized to H's image:
///     ∀y χ ⇒ ∀y (∃s H(s,y) → χ), ∃y χ ⇒ ∃y (∃s H(s,y) ∧ χ).
///
/// The paper is explicit that this is *not* a practical evaluation route —
/// it exists to expose the second-order universal quantification hidden in
/// CW query semantics. Accordingly the construction is exercised on tiny
/// databases (the SO evaluator enumerates 2^(|C|²) interpretations of H).
struct PreciseSimulation {
  Query query;  ///< Q', a Σ-free ∀-prefixed second-order query over L'.
};

/// Builds Q' for `query` against the vocabulary of `lb` (which must
/// already contain `NE`, i.e. `MakePh2` was called with `lb`'s own
/// vocabulary — the paper's in-place construction). Only the predicates
/// occurring in the query body receive primed copies — predicates the
/// query never mentions cannot influence ψ, so quantifying their images
/// would only enlarge the search space.
Result<PreciseSimulation> BuildPreciseSimulation(CwDatabase* lb, PredId ne,
                                                 const Query& query);

}  // namespace lqdb

#endif  // LQDB_CWDB_SIMULATION_H_
