// Difference with expiration times (paper Sec. 2.6.2, 3.4.2).
//
// R −exp S = { r | r ∈ expτ(R) ∧ r ∉ expτ(S) }, with result tuples keeping
// texp_R. The operator is non-monotonic: a tuple t present in both R and S
// with texp_R(t) > texp_S(t) ("critical", case 3a of Table 2) must appear
// in the result when it expires from S, so the materialized result becomes
// invalid at min over critical t of texp_S(t) (the paper's τ_R).
//
// Note on Eq. (11): as printed it takes min{texp_R(t) | ...}, but the
// paper's own τ_R definition, Table 2 case (3a), and Theorem 2's proof all
// use texp_S(t) — the instant the tuple should re-appear. ExpDB implements
// the texp_S version.
//
// Note on Eq. (12): the printed validity formula removes the single coarse
// window [min texp_S, max texp_S). The exact invalid set is the union of
// per-tuple windows [texp_S(t), texp_R(t)) — each critical tuple is
// missing from the materialization exactly while it is expired in S but
// alive in R. ExpDB computes the exact union (a superset of the paper's
// validity), and exposes the coarse window too for the reproduction.

#ifndef EXPDB_CORE_DIFFERENCE_H_
#define EXPDB_CORE_DIFFERENCE_H_

#include <vector>

#include "common/timestamp.h"
#include "core/interval_set.h"
#include "relational/relation.h"

namespace expdb {

/// \brief One critical tuple of a difference: a member of the Theorem 3
/// helper relation R(R −exp S) together with the patch metadata.
struct DifferencePatchEntry {
  Tuple tuple;
  /// texp_S(t): when the tuple expires from S and must appear in the
  /// result (the helper relation's expiration time).
  Timestamp appears_at;
  /// texp_R(t): the expiration time the patched-in tuple carries.
  Timestamp expires_at;

  bool operator==(const DifferencePatchEntry&) const = default;
};

/// \brief Full lifetime analysis of e = R −exp S at time τ.
struct DifferenceAnalysis {
  /// The materialized result per Eq. (10) (schema = R's schema).
  Relation result;
  /// Critical tuples (Table 2 case 3a): t ∈ expτ(R) ∩ expτ(S) with
  /// texp_R(t) > texp_S(t), sorted by (appears_at, tuple). Non-critical
  /// common tuples are omitted: patching them in would insert an
  /// already-expired tuple, a no-op.
  std::vector<DifferencePatchEntry> critical;
  /// Number of common tuples |expτ(R) ∩ expτ(S)| — the paper's bound on
  /// the helper priority queue size.
  size_t common_count = 0;
  /// τ_R = min{texp_S(t) | t critical}; ∞ when there are no critical
  /// tuples. The materialized result is invalid from this instant on
  /// unless patched.
  Timestamp tau_r = Timestamp::Infinity();
  /// Exact invalid windows: ∪_t [texp_S(t), texp_R(t)) over critical t.
  IntervalSet invalid_windows;
  /// The paper's coarse Eq. (12) window [min texp_S, max texp_R) over
  /// critical tuples (empty when none). ExpDB uses texp_R as the upper
  /// bound (see header comment); always a superset interval of each exact
  /// window.
  IntervalSet coarse_invalid_window;
};

/// \brief Computes R −exp S with full lifetime analysis. `left` and
/// `right` must already be restricted to unexpired tuples (the evaluator
/// passes operator results, which are).
///
/// `workers` > 1 scans `left` in parallel morsels (probing `right`'s index
/// read-only) on the shared thread pool; `min_morsel` is the per-morsel
/// floor below which the scan stays serial. The analysis is deterministic
/// regardless of worker count.
DifferenceAnalysis AnalyzeDifference(const Relation& left,
                                     const Relation& right,
                                     size_t workers = 1,
                                     size_t min_morsel = 1024);

/// \brief Theorem 3 patching: advances `*cursor` over the `helper`
/// entries (sorted by appears_at) with appears_at <= `now` and inserts
/// each one still alive at `now` into `result`, expiring at texp_R(t).
/// At texp_S(t) the helper tuple expires from S and belongs in the
/// difference; one already past texp_R(t) would be invisible, so it is
/// skipped. The insertions are one change (Relation::ApplyChange).
/// \return the number of tuples inserted.
size_t ApplyDifferencePatches(const std::vector<DifferencePatchEntry>& helper,
                              size_t* cursor, Timestamp now, Relation* result);

}  // namespace expdb

#endif  // EXPDB_CORE_DIFFERENCE_H_
