#include "core/aggregate.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace expdb {

std::string_view AggregateKindToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kMin:
      return "min";
    case AggregateKind::kMax:
      return "max";
    case AggregateKind::kSum:
      return "sum";
    case AggregateKind::kCount:
      return "count";
    case AggregateKind::kAvg:
      return "avg";
  }
  return "?";
}

std::string_view AggregateExpirationModeToString(AggregateExpirationMode m) {
  switch (m) {
    case AggregateExpirationMode::kConservative:
      return "conservative";
    case AggregateExpirationMode::kContributingSet:
      return "contributing-set";
    case AggregateExpirationMode::kExact:
      return "exact";
  }
  return "?";
}

ValueType AggregateFunction::ResultType(ValueType attr_type) const {
  switch (kind) {
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return attr_type;
    case AggregateKind::kSum:
      return attr_type == ValueType::kDouble ? ValueType::kDouble
                                             : ValueType::kInt64;
    case AggregateKind::kCount:
      return ValueType::kInt64;
    case AggregateKind::kAvg:
      return ValueType::kDouble;
  }
  return attr_type;
}

std::string AggregateFunction::ToString() const {
  std::string out(AggregateKindToString(kind));
  if (kind != AggregateKind::kCount) {
    out += "_" + std::to_string(attr + 1);  // paper subscripts are 1-based
  }
  return out;
}

namespace {

// Exact numeric accumulator: integer sums are kept in 128 bits so that
// sum/avg neutrality tests are free of floating-point rounding whenever the
// aggregated attribute is integral.
struct NumericSum {
  bool is_int = true;
  __int128 isum = 0;
  long double dsum = 0.0L;
  int64_t count = 0;

  Status Add(const Value& v) {
    if (v.is_int64() && is_int) {
      isum += v.AsInt64();
    } else {
      EXPDB_ASSIGN_OR_RETURN(double d, v.ToNumeric());
      if (is_int && count > 0) {
        // Late type widening: fold the integer prefix into the double sum.
        dsum = static_cast<long double>(isum);
      }
      is_int = false;
      dsum += static_cast<long double>(d);
    }
    ++count;
    return Status::OK();
  }

  /// Sum as a Value (int64 when integral; OutOfRange on int64 overflow).
  Result<Value> SumValue() const {
    if (is_int) {
      if (isum > static_cast<__int128>(INT64_MAX) ||
          isum < static_cast<__int128>(INT64_MIN)) {
        return Status::OutOfRange("sum overflows int64");
      }
      return Value(static_cast<int64_t>(isum));
    }
    return Value(static_cast<double>(dsum));
  }

  Result<Value> AvgValue() const {
    assert(count > 0);
    const double total =
        is_int ? static_cast<double>(isum) : static_cast<double>(dsum);
    return Value(total / static_cast<double>(count));
  }

  /// Exact equality of sums.
  bool SumEquals(const NumericSum& other) const {
    if (is_int && other.is_int) return isum == other.isum;
    const long double a = is_int ? static_cast<long double>(isum) : dsum;
    const long double b =
        other.is_int ? static_cast<long double>(other.isum) : other.dsum;
    return a == b;
  }

  /// Exact equality of averages via cross multiplication (no division).
  bool AvgEquals(const NumericSum& other) const {
    assert(count > 0 && other.count > 0);
    if (is_int && other.is_int) {
      return isum * other.count == other.isum * count;
    }
    const long double a = is_int ? static_cast<long double>(isum) : dsum;
    const long double b =
        other.is_int ? static_cast<long double>(other.isum) : other.dsum;
    return a * static_cast<long double>(other.count) ==
           b * static_cast<long double>(count);
  }

  NumericSum Minus(const NumericSum& part) const {
    NumericSum out;
    out.is_int = is_int && part.is_int;
    if (out.is_int) {
      out.isum = isum - part.isum;
    } else {
      const long double a = is_int ? static_cast<long double>(isum) : dsum;
      const long double b =
          part.is_int ? static_cast<long double>(part.isum) : part.dsum;
      out.dsum = a - b;
    }
    out.count = count - part.count;
    return out;
  }
};

// Entries of a partition sorted by expiration time (infinite last), plus
// the boundaries of its time slices (maximal runs of equal texp).
struct SlicedPartition {
  std::vector<PartitionEntry> sorted;
  // Index ranges [begin, end) of slices with *finite* texp, in texp order.
  std::vector<std::pair<size_t, size_t>> finite_slices;
};

SlicedPartition SliceByTexp(std::span<const PartitionEntry> partition) {
  SlicedPartition out;
  out.sorted.assign(partition.begin(), partition.end());
  std::stable_sort(out.sorted.begin(), out.sorted.end(),
                   [](const PartitionEntry& a, const PartitionEntry& b) {
                     return a.texp < b.texp;
                   });
  size_t i = 0;
  while (i < out.sorted.size() && out.sorted[i].texp.IsFinite()) {
    size_t j = i;
    while (j < out.sorted.size() && out.sorted[j].texp == out.sorted[i].texp) {
      ++j;
    }
    out.finite_slices.emplace_back(i, j);
    i = j;
  }
  return out;
}

// Suffix state for exact replay: for each index i of the sorted partition,
// the aggregate-relevant summary of entries [i, n).
struct SuffixState {
  // For min/max: suffix extremum values.
  std::vector<Value> extremum;
  // For sum/avg/count: suffix numeric sums (count carried inside).
  std::vector<NumericSum> sums;
};

Result<SuffixState> BuildSuffixes(const std::vector<PartitionEntry>& sorted,
                                  const AggregateFunction& f) {
  SuffixState s;
  const size_t n = sorted.size();
  switch (f.kind) {
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      s.extremum.resize(n);
      for (size_t i = n; i-- > 0;) {
        const Value& v = sorted[i].tuple->at(f.attr);
        if (i == n - 1) {
          s.extremum[i] = v;
        } else if (f.kind == AggregateKind::kMin) {
          s.extremum[i] = v < s.extremum[i + 1] ? v : s.extremum[i + 1];
        } else {
          s.extremum[i] = v > s.extremum[i + 1] ? v : s.extremum[i + 1];
        }
      }
      return s;
    }
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
    case AggregateKind::kCount: {
      s.sums.resize(n + 1);
      for (size_t i = n; i-- > 0;) {
        s.sums[i] = s.sums[i + 1];
        if (f.kind == AggregateKind::kCount) {
          s.sums[i].count++;
        } else {
          EXPDB_RETURN_NOT_OK(s.sums[i].Add(sorted[i].tuple->at(f.attr)));
        }
      }
      return s;
    }
  }
  return Status::Internal("unknown aggregate kind");
}

// Whether the aggregate value over suffix [i, n) differs from the value
// over suffix [j, n), j > i. Suffix [j, n) must be non-empty.
bool SuffixValueChanges(const SuffixState& s, const AggregateFunction& f,
                        size_t i, size_t j) {
  switch (f.kind) {
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return s.extremum[i] != s.extremum[j];
    case AggregateKind::kSum:
      return !s.sums[i].SumEquals(s.sums[j]);
    case AggregateKind::kAvg:
      return !s.sums[i].AvgEquals(s.sums[j]);
    case AggregateKind::kCount:
      return s.sums[i].count != s.sums[j].count;
  }
  return false;
}

Timestamp PartitionDeath(std::span<const PartitionEntry> partition) {
  Timestamp death = Timestamp::Zero();
  for (const PartitionEntry& e : partition) {
    death = Timestamp::Max(death, e.texp);
  }
  return death;
}

Timestamp PartitionMinTexp(std::span<const PartitionEntry> partition) {
  Timestamp m = Timestamp::Infinity();
  for (const PartitionEntry& e : partition) {
    m = Timestamp::Min(m, e.texp);
  }
  return m;
}

// Closed-form contributing-set cap for min/max (Table 1): the result value
// stays correct until the last-expiring tuple holding the extremum value
// expires; tuples with non-extremal values are neutral, as are extremum
// holders that expire before that last one.
Timestamp ExtremumCap(std::span<const PartitionEntry> partition,
                      const AggregateFunction& f, const Value& value) {
  Timestamp last_holder = Timestamp::Zero();
  for (const PartitionEntry& e : partition) {
    if (e.tuple->at(f.attr) == value) {
      last_holder = Timestamp::Max(last_holder, e.texp);
    }
  }
  return last_holder;
}

// Closed-form contributing-set cap for sum/avg (Table 1): walk the time
// slices in expiration order; a slice is neutral iff removing it leaves the
// aggregate unchanged (slice sum == 0 for sum; slice average == running
// average for avg, tested by exact cross multiplication). The first
// non-neutral slice whose removal leaves the partition non-empty caps the
// lifetime; if no such slice exists, C = ∅ and the cap is the partition
// death (the paper's special-case formula).
Result<Timestamp> SumAvgCap(const SlicedPartition& sliced,
                            const AggregateFunction& f, Timestamp death) {
  NumericSum running;
  for (const PartitionEntry& e : sliced.sorted) {
    EXPDB_RETURN_NOT_OK(running.Add(e.tuple->at(f.attr)));
  }
  for (const auto& [begin, end] : sliced.finite_slices) {
    const bool remaining_nonempty = end < sliced.sorted.size();
    if (!remaining_nonempty) break;  // removal empties the partition
    NumericSum slice;
    for (size_t i = begin; i < end; ++i) {
      EXPDB_RETURN_NOT_OK(slice.Add(sliced.sorted[i].tuple->at(f.attr)));
    }
    bool neutral;
    if (f.kind == AggregateKind::kSum) {
      NumericSum zero;
      neutral = slice.SumEquals(zero);
    } else {
      neutral = slice.AvgEquals(running);
    }
    if (!neutral) return sliced.sorted[begin].texp;
    running = running.Minus(slice);
  }
  return death;
}

}  // namespace

Result<Value> ApplyAggregate(const AggregateFunction& f,
                             std::span<const PartitionEntry> partition) {
  if (partition.empty()) {
    return Status::InvalidArgument("aggregate over empty partition");
  }
  switch (f.kind) {
    case AggregateKind::kCount:
      return Value(static_cast<int64_t>(partition.size()));
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      Value best = partition.front().tuple->at(f.attr);
      for (const PartitionEntry& e : partition) {
        const Value& v = e.tuple->at(f.attr);
        if (f.kind == AggregateKind::kMin ? v < best : v > best) best = v;
      }
      return best;
    }
    case AggregateKind::kSum:
    case AggregateKind::kAvg: {
      NumericSum sum;
      for (const PartitionEntry& e : partition) {
        EXPDB_RETURN_NOT_OK(sum.Add(e.tuple->at(f.attr)));
      }
      return f.kind == AggregateKind::kSum ? sum.SumValue() : sum.AvgValue();
    }
  }
  return Status::Internal("unknown aggregate kind");
}

Result<std::vector<Timestamp>> PartitionChangeTimes(
    std::span<const PartitionEntry> partition,
    const AggregateFunction& f) {
  SlicedPartition sliced = SliceByTexp(partition);
  EXPDB_ASSIGN_OR_RETURN(SuffixState suffixes,
                         BuildSuffixes(sliced.sorted, f));
  std::vector<Timestamp> changes;
  for (const auto& [begin, end] : sliced.finite_slices) {
    if (end >= sliced.sorted.size()) break;  // partition empties here
    if (SuffixValueChanges(suffixes, f, begin, end)) {
      changes.push_back(sliced.sorted[begin].texp);
    }
  }
  return changes;
}

namespace {

// Whether the aggregate over suffix [j, n) deviates from the original
// materialized `value` by more than `tolerance`. Non-numeric values fall
// back to exact comparison.
bool SuffixDeviatesBeyond(const SuffixState& s, const AggregateFunction& f,
                          size_t j, const Value& value, double tolerance) {
  auto numeric_deviates = [&](double live) {
    auto original = value.ToNumeric();
    if (!original.ok()) return true;  // should not happen for numerics
    return std::abs(live - *original) > tolerance;
  };
  switch (f.kind) {
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      const Value& live = s.extremum[j];
      if (live.is_numeric() && value.is_numeric()) {
        return numeric_deviates(live.ToNumeric().value());
      }
      return live != value;
    }
    case AggregateKind::kSum: {
      const NumericSum& live = s.sums[j];
      const double d = live.is_int ? static_cast<double>(live.isum)
                                   : static_cast<double>(live.dsum);
      return numeric_deviates(d);
    }
    case AggregateKind::kAvg: {
      const NumericSum& live = s.sums[j];
      const double total = live.is_int ? static_cast<double>(live.isum)
                                       : static_cast<double>(live.dsum);
      return numeric_deviates(total / static_cast<double>(live.count));
    }
    case AggregateKind::kCount:
      return numeric_deviates(static_cast<double>(s.sums[j].count));
  }
  return true;
}

}  // namespace

Result<PartitionAnalysis> AnalyzeApproxPartition(
    std::span<const PartitionEntry> partition, const AggregateFunction& f,
    double tolerance) {
  if (partition.empty()) {
    return Status::InvalidArgument("aggregate over empty partition");
  }
  if (tolerance < 0) {
    return Status::InvalidArgument("tolerance must be non-negative");
  }
  PartitionAnalysis out;
  EXPDB_ASSIGN_OR_RETURN(out.value, ApplyAggregate(f, partition));
  out.death = PartitionDeath(partition);

  SlicedPartition sliced = SliceByTexp(partition);
  EXPDB_ASSIGN_OR_RETURN(SuffixState suffixes,
                         BuildSuffixes(sliced.sorted, f));
  out.change_cap = out.death;
  for (const auto& [begin, end] : sliced.finite_slices) {
    if (end >= sliced.sorted.size()) break;  // partition empties here
    if (SuffixDeviatesBeyond(suffixes, f, end, out.value, tolerance)) {
      out.change_cap = sliced.sorted[begin].texp;
      out.invalidates_expression = true;
      break;
    }
  }
  return out;
}

Result<PartitionAnalysis> AnalyzePartition(
    std::span<const PartitionEntry> partition, const AggregateFunction& f,
    AggregateExpirationMode mode) {
  if (partition.empty()) {
    return Status::InvalidArgument("aggregate over empty partition");
  }
  PartitionAnalysis out;
  EXPDB_ASSIGN_OR_RETURN(out.value, ApplyAggregate(f, partition));
  out.death = PartitionDeath(partition);

  switch (mode) {
    case AggregateExpirationMode::kConservative: {
      // Eq. (8): the whole partition's result tuples die with its
      // earliest-expiring member; if any member outlives that instant the
      // materialized expression is missing tuples from then on.
      out.change_cap = PartitionMinTexp(partition);
      out.invalidates_expression = out.change_cap < out.death;
      return out;
    }
    case AggregateExpirationMode::kContributingSet: {
      switch (f.kind) {
        case AggregateKind::kCount:
          // The paper: count strictly follows Eq. (8) — every expiration
          // changes the count.
          out.change_cap = PartitionMinTexp(partition);
          out.invalidates_expression = out.change_cap < out.death;
          return out;
        case AggregateKind::kMin:
        case AggregateKind::kMax:
          out.change_cap = ExtremumCap(partition, f, out.value);
          out.invalidates_expression = out.change_cap < out.death;
          return out;
        case AggregateKind::kSum:
        case AggregateKind::kAvg: {
          SlicedPartition sliced = SliceByTexp(partition);
          EXPDB_ASSIGN_OR_RETURN(out.change_cap,
                                 SumAvgCap(sliced, f, out.death));
          out.invalidates_expression = out.change_cap < out.death;
          return out;
        }
      }
      return Status::Internal("unknown aggregate kind");
    }
    case AggregateExpirationMode::kExact: {
      EXPDB_ASSIGN_OR_RETURN(std::vector<Timestamp> changes,
                             PartitionChangeTimes(partition, f));
      if (changes.empty()) {
        out.change_cap = out.death;
        out.invalidates_expression = false;
      } else {
        out.change_cap = changes.front();
        out.invalidates_expression = true;
      }
      return out;
    }
  }
  return Status::Internal("unknown aggregate expiration mode");
}

}  // namespace expdb
