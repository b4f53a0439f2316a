// Algebraic rewriting to postpone recomputation (paper Sec. 3.1).
//
// "The idea is to use algebraic equivalences to rewrite query plans; the
// objective is to reduce the set {t | t ∈ R ∧ t ∈ S ∧ texp_R(t) >
// texp_S(t)}, which causes recomputations."
//
// Every rule preserves the materialized contents *and* the per-tuple
// expiration times at every instant; what changes is the expression-level
// expiration time texp(e), which can only grow (the rewritten plan stays
// independently maintainable at least as long — property-tested). The
// implemented equivalences:
//
//  * merge-selects           σp(σq(e))            -> σ(p ∧ q)(e)
//  * select-into-join        σp(l ⋈q r)           -> l ⋈(q ∧ p) r
//  * select-through-set-op   σp(l ∪/∩/− r)        -> σp(l) ∪/∩/− σp(r)
//      (through −, this shrinks the critical set directly)
//  * select-through-project  σp(π_A(e))           -> π_A(σ_{p∘A}(e))
//  * select-through-aggregate σp(agg_{G,f}(e))    -> agg_{G,f}(σp(e))
//      when p references only grouping attributes: whole partitions are
//      removed, so surviving partitions keep their values, caps, and
//      change times — and texp(e) is the min over fewer partitions
//  * product-to-join         σp(l × r)            -> σ_rest(l ⋈pX r) with
//      single-side conjuncts of p pushed into l and r first
//  * merge-projects          π_A(π_B(e))          -> π_{B∘A}(e)

#ifndef EXPDB_CORE_REWRITE_H_
#define EXPDB_CORE_REWRITE_H_

#include <map>
#include <string>

#include "core/expression.h"

namespace expdb {

/// \brief Which rules fired, and how often.
struct RewriteReport {
  std::map<std::string, size_t> rule_applications;

  size_t total() const {
    size_t n = 0;
    for (const auto& [rule, count] : rule_applications) n += count;
    return n;
  }
  std::string ToString() const;
};

/// \brief Rewrites `expr` bottom-up to a fixpoint (bounded), applying the
/// independence-extending equivalences above. `db` supplies schemas for
/// validity checks. Returns the (possibly identical) rewritten plan.
Result<ExpressionPtr> RewriteForIndependence(const ExpressionPtr& expr,
                                             const Database& db,
                                             RewriteReport* report = nullptr);

/// \brief σp(l × r) as a join with p's single-side conjuncts pushed below
/// it: p's ∧-spine splits into left-only conjuncts (columns < `n_left`),
/// right-only conjuncts (shifted into r's column frame) and the rest,
/// giving σ_left(l) ⋈_rest σ_right(r). A side without conjuncts stays
/// unfiltered; with nothing pushable the join keeps p itself. Exact: a
/// selection keeps its input's per-tuple texps and texp(e) (Eq. 1), and
/// the join takes the same minima over the same surviving pairs.
/// `*pushed` (optional) reports whether any conjunct moved below the join.
ExpressionPtr JoinWithPushedConjuncts(ExpressionPtr left, ExpressionPtr right,
                                      const Predicate& p, size_t n_left,
                                      bool* pushed = nullptr);

}  // namespace expdb

#endif  // EXPDB_CORE_REWRITE_H_
