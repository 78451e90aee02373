#ifndef LQDB_REDUCTIONS_SO_REDUCTION_H_
#define LQDB_REDUCTIONS_SO_REDUCTION_H_

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/logic/query.h"
#include "lqdb/reductions/qbf.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// The Theorem 9 reduction from 3CNF B_{k+1} to evaluation of Σ¹ₖ
/// second-order queries over CW logical databases — this is the data-
/// complexity hardness construction, so the *query* depends only on k and
/// the clause shapes while the *database* encodes the instance:
///
///   - vocabulary: unary `N_1`, ternary relations `R^{pqr}_{ijl}` (one per
///     distinct block-triple/polarity-triple clause shape), known constant
///     `1`, constants `c_{i,j}` per variable x_{i,j} (unknown for the
///     outermost block i = 1, known otherwise);
///   - facts: `N_1(1)` and, per clause over variables x_{i,a}, x_{j,b},
///     x_{l,d}, the tuple `R^{pqr}_{ijl}(c_{i,a}, c_{j,b}, c_{l,d})`;
///   - query: σ = ∃N_2 ∀N_3 ... Q N_{k+1} . ξ, where ξ conjoins, per clause
///     shape, (∀xyz)(R^{pqr}_{ijl}(x,y,z) → lit_p N_i(x) ∨ lit_q N_j(y) ∨
///     lit_r N_l(z)).
///
/// Mapping quantification (Theorem 1) simulates the outer ∀-block via
/// h(c_{1,j}) = h(1); the second-order quantifiers simulate the remaining
/// blocks.
///
/// Deviation from the paper: the paper's
/// uniqueness axioms cover exactly the pairs among levels ≥ 2; making those
/// constants *known* here additionally separates them from `1`. The extra
/// axioms only exclude mappings that neither direction of the proof needs,
/// so the reduction's answer is unchanged (cross-validated against the QBF
/// solver in tests).
///
/// The QBF is true  iff  T ⊨_f σ  iff  () ∈ Q(LB).
struct SoReduction {
  CwDatabase lb;
  Query query;
};

Result<SoReduction> BuildSoReduction(const Qbf3Cnf& qbf);

}  // namespace lqdb

#endif  // LQDB_REDUCTIONS_SO_REDUCTION_H_
