// Aggregation with expiration times (paper Sec. 2.6.1).
//
// aggexp_{j1..jn,f}(R) keeps every attribute of R and appends the aggregate
// value of the tuple's partition (Klug-style semantics, Eq. 8). Three
// expiration-time assignment modes are provided:
//
//  * kConservative  — Eq. (8): every result tuple of a partition carries
//                     the minimum expiration time of the partition.
//  * kContributingSet — Table 1: time-sliced neutral subsets are ignored;
//                     result tuples carry the minimum expiration time of
//                     the contributing set C (or the partition maximum when
//                     C = ∅). Closed-form per standard SQL aggregate.
//  * kExact         — Eq. (9): replay the partition's expirations to find
//                     ν, the first instant the aggregate value changes.
//
// Soundness note (documented in DESIGN.md): read literally, the paper's
// per-tuple formulas can let a result tuple outlive its source tuple r
// (e.g. a non-minimal r under a min aggregate), which would make the
// materialized result over-full relative to recomputation and break
// Theorem 2. ExpDB therefore always caps a result tuple's expiration at
// texp_R(r); the mode only controls the partition-wide "value change" cap.
//
// A second off-by-one note: the paper defines ν via χ(τ') ≡ f(expτ'(P)) ≠
// f(expτ'+1(P)), which names the last instant the old value is observable.
// ExpDB's change_cap is the first instant the *new* value holds (ν + 1 in
// the paper's terms), which is the correct expiration time under the
// "visible while texp > τ" convention used everywhere else.

#ifndef EXPDB_CORE_AGGREGATE_H_
#define EXPDB_CORE_AGGREGATE_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/timestamp.h"
#include "common/value.h"
#include "relational/tuple.h"

namespace expdb {

/// The family F of standard SQL aggregate functions.
enum class AggregateKind { kMin, kMax, kSum, kCount, kAvg };

std::string_view AggregateKindToString(AggregateKind kind);

/// \brief An aggregate function f ∈ F with its argument attribute (the
/// paper's subscript, e.g. sum_1). Count takes no attribute.
struct AggregateFunction {
  AggregateKind kind = AggregateKind::kCount;
  size_t attr = 0;  ///< 0-based argument attribute; unused for count.

  static AggregateFunction Min(size_t attr) {
    return {AggregateKind::kMin, attr};
  }
  static AggregateFunction Max(size_t attr) {
    return {AggregateKind::kMax, attr};
  }
  static AggregateFunction Sum(size_t attr) {
    return {AggregateKind::kSum, attr};
  }
  static AggregateFunction Count() { return {AggregateKind::kCount, 0}; }
  static AggregateFunction Avg(size_t attr) {
    return {AggregateKind::kAvg, attr};
  }

  /// \brief The result type given the argument attribute's type.
  ValueType ResultType(ValueType attr_type) const;

  /// Renders e.g. "sum_3" (attribute subscript 1-based, as in the paper).
  std::string ToString() const;

  bool operator==(const AggregateFunction&) const = default;
};

/// How expiration times are assigned to aggregation results.
enum class AggregateExpirationMode {
  kConservative,     ///< Eq. (8)
  kContributingSet,  ///< Table 1 neutral subsets
  kExact,            ///< Eq. (9) ν-replay; works for any deterministic f
};

std::string_view AggregateExpirationModeToString(AggregateExpirationMode m);

/// \brief One member of a partition: the source tuple and its texp.
struct PartitionEntry {
  const Tuple* tuple;
  Timestamp texp;
};

/// \brief The lifetime analysis of one partition under one aggregate.
struct PartitionAnalysis {
  /// f(P) at materialization time.
  Value value;
  /// Cap applied to every result tuple of the partition: the first instant
  /// the aggregate value is no longer `value` (mode-dependent bound). When
  /// the value never changes while the partition lives, this equals
  /// `death` and tuples simply expire with their sources.
  Timestamp change_cap;
  /// max{texp_R(r) | r ∈ P}: when the whole partition has expired.
  Timestamp death;
  /// True iff the aggregate value changes strictly before the partition
  /// dies — the case that invalidates the materialized expression
  /// (Sec. 2.6.1's first case for χ).
  bool invalidates_expression = false;
};

/// \brief Computes f(P). P must be non-empty; sum/avg require numeric
/// attribute values.
Result<Value> ApplyAggregate(const AggregateFunction& f,
                             std::span<const PartitionEntry> partition);

/// \brief Full lifetime analysis of a partition under `mode`.
///
/// The partition must be non-empty and contain only tuples unexpired at
/// the materialization time (callers partition expτ(R)).
Result<PartitionAnalysis> AnalyzePartition(
    std::span<const PartitionEntry> partition, const AggregateFunction& f,
    AggregateExpirationMode mode);

/// \brief All instants at which the aggregate value of this partition
/// changes while the partition is still alive, in increasing order.
/// Used for Schrödinger validity intervals and for the paper's Sec. 3.4.1
/// bound on the number of future aggregate values (at most |P|).
Result<std::vector<Timestamp>> PartitionChangeTimes(
    std::span<const PartitionEntry> partition, const AggregateFunction& f);

/// \brief Approximate aggregate lifetimes (the paper's future-work item:
/// "maintaining, e.g., aggregate values with certain error bounds").
///
/// Like AnalyzePartition in kExact mode, but the materialized value is
/// considered valid while the true aggregate stays within ± `tolerance`
/// (absolute) of it, so `change_cap` is the first instant the live
/// aggregate *deviates by more than* the bound while the partition is
/// still alive. tolerance = 0 degenerates to the exact analysis. Only
/// numeric aggregates participate; min/max over strings ignore the bound.
Result<PartitionAnalysis> AnalyzeApproxPartition(
    std::span<const PartitionEntry> partition, const AggregateFunction& f,
    double tolerance);

}  // namespace expdb

#endif  // EXPDB_CORE_AGGREGATE_H_
