#include "plan/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/join_key_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace expdb {
namespace plan {

namespace {

/// Indexed by ExprKind. Keep in sync with core/expression.h.
constexpr const char* kOpMetricNames[] = {
    "base",      "select",    "project",   "product",
    "union",     "join",      "intersect", "difference",
    "aggregate", "semi_join", "anti_join"};
constexpr const char* kOpSpanNames[] = {
    "eval.base",      "eval.select",    "eval.project",   "eval.product",
    "eval.union",     "eval.join",      "eval.intersect", "eval.difference",
    "eval.aggregate", "eval.semi_join", "eval.anti_join"};
constexpr size_t kNumOpKinds =
    sizeof(kOpMetricNames) / sizeof(kOpMetricNames[0]);

/// Registry handles for operator evaluation, resolved once per process so
/// the per-node cost is bare atomic increments. Metric names are kept from
/// the pre-planner interpreter (expdb_eval_*) — dashboards and STATS
/// output are unchanged by the refactor.
struct EvalMetricSet {
  obs::Counter* evaluations;
  obs::Counter* operators;
  obs::Counter* tuples_out;
  obs::Counter* per_op[kNumOpKinds];
  obs::Histogram* latency;
  // Parallel runtime (docs/PERFORMANCE.md).
  obs::Counter* parallel_loops;
  obs::Counter* parallel_morsels;
  obs::Counter* parallel_fallbacks;
  obs::Histogram* morsel_latency;
  // Planner-pipeline execution effects (docs/PLANNER.md).
  obs::Counter* pruned_subtrees;
  obs::Counter* cse_reuses;
  // Expiration-partitioned scans (docs/PERFORMANCE.md §8).
  obs::Counter* segment_pruned;
  obs::Counter* segment_checked;
  obs::Counter* segment_skipped;

  static const EvalMetricSet& Get() {
    static const EvalMetricSet* set = [] {
      auto* s = new EvalMetricSet();
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      s->evaluations = r.GetCounter("expdb_eval_evaluations_total",
                                    "Root-level expression evaluations");
      s->operators = r.GetCounter("expdb_eval_operators_total",
                                  "Operator nodes evaluated (all kinds)");
      s->tuples_out = r.GetCounter("expdb_eval_tuples_out_total",
                                   "Tuples produced by operator nodes");
      for (size_t i = 0; i < kNumOpKinds; ++i) {
        s->per_op[i] =
            r.GetCounter("expdb_eval_op_" + std::string(kOpMetricNames[i]) +
                             "_total",
                         "Evaluations of this operator kind");
      }
      s->latency = r.GetHistogram("expdb_eval_latency_ns",
                                  "Root evaluation wall time (ns)");
      s->parallel_loops =
          r.GetCounter("expdb_eval_parallel_loops_total",
                       "Operator scans executed as parallel morsel loops");
      s->parallel_morsels =
          r.GetCounter("expdb_eval_parallel_morsels_total",
                       "Morsels processed by parallel operator scans");
      s->parallel_fallbacks = r.GetCounter(
          "expdb_eval_parallel_fallback_total",
          "Parallel-eligible scans run serially (below morsel cutoff)");
      s->morsel_latency = r.GetHistogram(
          "expdb_eval_parallel_morsel_latency_ns",
          "Per-morsel wall time of parallel operator scans (ns)");
      s->pruned_subtrees = r.GetCounter(
          "expdb_plan_pruned_subtrees_total",
          "Plan subtrees skipped because every input was expired");
      s->cse_reuses = r.GetCounter(
          "expdb_plan_cse_reuses_total",
          "Plan nodes served from the common-subtree cache");
      s->segment_pruned = r.GetCounter(
          "expdb_segment_pruned_total",
          "Storage segments skipped by scans (fully expired at τ)");
      s->segment_checked = r.GetCounter(
          "expdb_segment_checked_total",
          "Storage segments scanned with per-tuple texp checks (straddle τ)");
      s->segment_skipped = r.GetCounter(
          "expdb_segment_skipped_total",
          "Unexpired storage segments skipped because their column bounds "
          "cannot match the scan's predicate");
      return s;
    }();
    return *set;
  }
};

/// True iff projecting onto `attrs` keeps every one of `arity` columns in
/// order.
bool IsIdentity(const std::vector<size_t>& attrs, size_t arity) {
  if (attrs.size() != arity) return false;
  for (size_t i = 0; i < arity; ++i) {
    if (attrs[i] != i) return false;
  }
  return true;
}

/// Operators whose incremental state DeltaPropagator::Seed builds from
/// their children's captured outputs (plan/delta.cc). Scans and filters
/// are stateless; cross products and anti-joins are never incremental.
bool SeedsFromChildren(PlanOp op) {
  switch (op) {
    case PlanOp::kProject:
    case PlanOp::kUnionMerge:
    case PlanOp::kHashIntersect:
    case PlanOp::kHashDifference:
    case PlanOp::kHashJoin:
    case PlanOp::kHashSemiJoin:
    case PlanOp::kHashAggregate:
      return true;
    case PlanOp::kScan:
    case PlanOp::kFilter:
    case PlanOp::kCrossProduct:
    case PlanOp::kHashAntiJoin:
      return false;
  }
  return false;
}

/// Slot count of an open-addressing table that holds `n` keys at a load
/// factor below 0.7: a power of two, at least 16.
size_t TableSlots(size_t n) {
  size_t cap = 16;
  while (cap * 7 <= n * 10) cap <<= 1;
  return cap;
}

/// The partition (of `parts`) a hash routes to. It reads the high half of
/// the hash, so the tables inside one partition, which probe by its low
/// bits, still spread their keys over every slot.
size_t PartitionOf(size_t hash, size_t parts) {
  return static_cast<size_t>(((hash >> 32) * parts) >> 32);
}

/// πexp/∪exp's duplicate rule (Eqs. 3–4) in one pass: entries holding
/// equal tuples merge into the first occurrence with the max of their
/// texps, and the survivors are compacted in first-occurrence order. The
/// table of output positions is sized once, for all entries distinct.
void MergeMaxInPlace(std::vector<Relation::Entry>* entries) {
  const size_t n = entries->size();
  if (n < 2) return;
  assert(n < std::numeric_limits<uint32_t>::max());
  // Slot -> 1 + output position; 0 is empty.
  std::vector<uint32_t> slots(TableSlots(n), 0);
  const size_t mask = slots.size() - 1;
  Relation::Entry* e = entries->data();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t s = e[i].tuple.Hash() & mask;
    while (slots[s] != 0 && e[slots[s] - 1].tuple != e[i].tuple) {
      s = (s + 1) & mask;
    }
    if (slots[s] != 0) {
      Relation::Entry& first = e[slots[s] - 1];
      first.texp = Timestamp::Max(first.texp, e[i].texp);
      continue;
    }
    slots[s] = static_cast<uint32_t>(kept + 1);
    if (kept != i) e[kept] = std::move(e[i]);
    ++kept;
  }
  entries->erase(entries->begin() + static_cast<ptrdiff_t>(kept),
                 entries->end());
}

/// φexp's partitioning (Eq. 7): rows grouped by equality on the grouping
/// columns, numbered in order of first appearance. Group g's members, in
/// input order, are members[begin[g] .. begin[g+1]).
struct Groups {
  std::vector<PartitionEntry> members;
  std::vector<size_t> begin;

  size_t size() const { return begin.size() - 1; }
  std::span<const PartitionEntry> operator[](size_t g) const {
    return {members.data() + begin[g], begin[g + 1] - begin[g]};
  }
};

const Relation::Entry& Deref(const Relation::Entry& e) { return e; }
const Relation::Entry& Deref(const Relation::Entry* e) { return *e; }

/// Groups `rows` (entries, or pointers to them) by the columns `cols`,
/// hashing and comparing the key columns in place (no key tuple is
/// materialized).
/// Group ids come from an open-addressing table that grows with the
/// group count; consecutive rows of one group (all of them, without
/// GROUP BY) share one lookup. The members are then gathered into one
/// flat array by a counting pass.
template <typename Rows>
Groups GroupRows(const Rows& rows, const std::vector<size_t>& cols) {
  const GroupKeyHash hash{&cols};
  const GroupKeyEq eq{&cols};
  const size_t n = rows.size();
  std::vector<uint32_t> id(n);
  // Per group: its first row's tuple, and that tuple's key hash.
  std::vector<const Tuple*> key;
  std::vector<size_t> key_hash;
  // Slot -> 1 + group id; 0 is empty.
  std::vector<uint32_t> slots(16, 0);
  auto place = [&](size_t g) {
    const size_t mask = slots.size() - 1;
    size_t s = key_hash[g] & mask;
    while (slots[s] != 0) s = (s + 1) & mask;
    slots[s] = static_cast<uint32_t>(g + 1);
  };
  for (size_t i = 0; i < n; ++i) {
    const Tuple& t = Deref(rows[i]).tuple;
    if (i > 0 && eq(*key[id[i - 1]], t)) {
      id[i] = id[i - 1];
      continue;
    }
    const size_t h = hash(t);
    const size_t mask = slots.size() - 1;
    size_t s = h & mask;
    while (slots[s] != 0 && !eq(*key[slots[s] - 1], t)) s = (s + 1) & mask;
    if (slots[s] != 0) {
      id[i] = slots[s] - 1;
      continue;
    }
    const size_t g = key.size();
    id[i] = static_cast<uint32_t>(g);
    key.push_back(&t);
    key_hash.push_back(h);
    if ((g + 1) * 10 >= slots.size() * 7) {
      slots.assign(slots.size() * 2, 0);
      for (size_t k = 0; k <= g; ++k) place(k);
    } else {
      slots[s] = static_cast<uint32_t>(g + 1);
    }
  }
  Groups out;
  out.begin.assign(key.size() + 1, 0);
  for (size_t i = 0; i < n; ++i) ++out.begin[id[i] + 1];
  for (size_t g = 0; g < key.size(); ++g) out.begin[g + 1] += out.begin[g];
  out.members.resize(n);
  std::vector<size_t> next(out.begin.begin(), out.begin.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const Relation::Entry& en = Deref(rows[i]);
    out.members[next[id[i]]++] = {&en.tuple, en.texp};
  }
  return out;
}

/// Drives the operator scan loops: serial inline when the executor runs
/// with one worker, morsel-parallel on the shared pool otherwise, with
/// `expdb_eval_parallel_*` counters and per-morsel latencies wired in.
class MorselRunner {
 public:
  MorselRunner(size_t workers, size_t min_morsel, bool metrics)
      : workers_(workers),
        min_morsel_(min_morsel > 0 ? min_morsel : 1),
        metrics_(metrics) {}

  bool parallel() const { return workers_ > 1; }
  size_t workers() const { return workers_; }
  size_t min_morsel() const { return min_morsel_; }

  /// Runs body over [0, n) in dynamic morsels (serial when not parallel).
  void Run(size_t n, const std::function<void(size_t, size_t)>& body) const {
    if (!parallel()) {
      body(0, n);
      return;
    }
    ParallelForOptions opts;
    opts.parallelism = workers_;
    opts.min_morsel_size = min_morsel_;
    RunWith(n, opts, body);
  }

  /// Runs body over [0, k) one index per morsel — the static partition
  /// phases (scatter chunks, partition merges) where each index is a
  /// coarse task that must not be subdivided.
  void RunTasks(size_t k,
                const std::function<void(size_t, size_t)>& body) const {
    if (!parallel()) {
      body(0, k);
      return;
    }
    ParallelForOptions opts;
    opts.parallelism = workers_;
    opts.min_morsel_size = 1;
    opts.max_morsels_per_worker = 1;
    RunWith(k, opts, body);
  }

  /// Morsel-parallel emit: `emit` appends result entries for the input
  /// range to its output vector; per-morsel locals are concatenated under
  /// a mutex (once per morsel, not per tuple). Serial mode emits straight
  /// into the result with zero overhead.
  std::vector<Relation::Entry> Collect(
      size_t n, const std::function<void(size_t, size_t,
                                         std::vector<Relation::Entry>*)>&
                    emit) const {
    std::vector<Relation::Entry> out;
    if (!parallel()) {
      emit(0, n, &out);
      return out;
    }
    std::mutex mu;
    Run(n, [&](size_t begin, size_t end) {
      std::vector<Relation::Entry> local;
      emit(begin, end, &local);
      if (local.empty()) return;
      std::lock_guard<std::mutex> lock(mu);
      out.insert(out.end(), std::make_move_iterator(local.begin()),
                 std::make_move_iterator(local.end()));
    });
    return out;
  }

 private:
  void RunWith(size_t n, const ParallelForOptions& opts,
               const std::function<void(size_t, size_t)>& body) const {
    if (!metrics_) {
      ParallelFor(n, opts, body);
      return;
    }
    const EvalMetricSet& m = EvalMetricSet::Get();
    const ParallelForStats stats =
        ParallelFor(n, opts, [&](size_t begin, size_t end) {
          // Under tracing each morsel is a child span of the enclosing
          // operator span — on helper threads too, via the context that
          // ParallelFor installs. Untraced, this is the same two clock
          // reads as before, feeding the morsel-latency histogram.
          obs::ScopedSpan span("eval.morsel", m.morsel_latency);
          body(begin, end);
        });
    if (stats.parallel) {
      m.parallel_loops->Increment();
      m.parallel_morsels->Increment(stats.morsels);
    } else {
      m.parallel_fallbacks->Increment();
    }
  }

  size_t workers_;
  size_t min_morsel_;
  bool metrics_;
};

/// Executes a PhysicalPlan. Holds the per-execution state: the database
/// snapshot, τ, execution options, live expired-subtree bounds, and the
/// common-subtree result cache.
class PlanExecutor {
 public:
  PlanExecutor(const PhysicalPlan& plan, const Database& db, Timestamp tau,
               const EvalOptions& options, PlanProfile* profile,
               NodeCapture* capture)
      : plan_(plan),
        db_(db),
        tau_(tau),
        options_(options),
        runner_(ResolveWorkers(options.parallelism),
                options.parallel_min_morsel, options.enable_metrics),
        profile_(profile),
        capture_(capture) {
    if (plan_.options().prune_expired) {
      bounds_.assign(plan_.node_count() + 1, Timestamp::Infinity());
      ComputeBound(plan_.root());
    }
    if (capture_ != nullptr) {
      seed_inputs_.assign(plan_.node_count() + 1, false);
      MarkSeedInputs(plan_.root());
    }
  }

  /// Per-node wrapper: expired-subtree pruning, constant-false elision,
  /// common-subtree reuse, metrics/span/profile accounting, dispatch.
  Result<MaterializedResult> Exec(const PlanNode& n) {
    const bool metrics = options_.enable_metrics;
    PlanProfile::NodeStats* stats =
        profile_ != nullptr ? &profile_->at(n.id) : nullptr;
    if (stats != nullptr) ++stats->calls;

    // Expired-subtree prune: every base tuple below n has
    // texp <= texp_upper_bound <= τ, so all scans are empty; by induction
    // over the operator rules every node above empty inputs produces the
    // empty relation with texp = ∞ and validity [τ, ∞) — returning that
    // directly is exact. Constant-false filters over monotonic subtrees
    // are elided by the same argument.
    if (n.const_false ||
        (!bounds_.empty() && bounds_[n.id] <= tau_)) {
      if (stats != nullptr) stats->pruned = true;
      if (metrics && !n.const_false) {
        EvalMetricSet::Get().pruned_subtrees->Increment();
      }
      Capture(n, /*pruned=*/true, /*reused=*/false);
      return EmptyResult(n);
    }

    // Common-subtree reuse: an identical subtree already materialized in
    // this execution — copy its result instead of recomputing.
    if (n.cse_id >= 0) {
      auto it = cse_cache_.find(n.cse_id);
      if (it != cse_cache_.end()) {
        if (stats != nullptr) {
          stats->reused = true;
          stats->rows += it->second.relation.size();
        }
        if (metrics) EvalMetricSet::Get().cse_reuses->Increment();
        Capture(n, /*pruned=*/false, /*reused=*/true);
        return it->second;
      }
    }

    const int64_t t0 = stats != nullptr ? obs::SteadyNowNs() : 0;
    Result<MaterializedResult> r = [&]() -> Result<MaterializedResult> {
      if (!metrics) return ExecNode(n);
      const size_t k = static_cast<size_t>(n.expr->kind());
      const EvalMetricSet& m = EvalMetricSet::Get();
      m.operators->Increment();
      if (k < kNumOpKinds) m.per_op[k]->Increment();
      obs::ScopedSpan span(k < kNumOpKinds ? kOpSpanNames[k] : "eval.op",
                           /*tag=*/n.id, /*latency=*/nullptr);
      Result<MaterializedResult> rr = ExecNode(n);
      if (rr.ok()) m.tuples_out->Increment(rr.value().relation.size());
      return rr;
    }();
    if (stats != nullptr) {
      stats->wall_ns += obs::SteadyNowNs() - t0;
      if (r.ok()) stats->rows += r.value().relation.size();
    }
    if (r.ok() && n.cse_id >= 0) cse_cache_[n.cse_id] = r.value();
    if (r.ok()) Capture(n, /*pruned=*/false, /*reused=*/false);
    return r;
  }

  Result<DifferenceEvalResult> ExecDifference(const PlanNode& n) {
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult l, Exec(*n.left));
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult r, Exec(*n.right));
    DifferenceAnalysis analysis = AnalyzeDifference(
        l.relation, r.relation, runner_.workers(), runner_.min_morsel());

    DifferenceEvalResult out;
    out.result.relation = std::move(analysis.result);
    out.result.materialized_at = tau_;
    // Eq. (11) with the texp_S correction (see difference.h): the
    // expression dies when either argument dies or the first critical
    // tuple should re-appear.
    out.result.texp = Timestamp::Min({l.texp, r.texp, analysis.tau_r});
    if (options_.compute_validity) {
      IntervalSet v = l.validity.Intersect(r.validity);
      for (const Interval& iv : analysis.invalid_windows.intervals()) {
        v.Subtract(iv);
      }
      out.result.validity = std::move(v);
    } else {
      out.result.validity = IntervalSet(tau_, out.result.texp);
    }
    out.helper = std::move(analysis.critical);
    out.common_count = analysis.common_count;
    out.children_texp = Timestamp::Min(l.texp, r.texp);
    Keep(*n.left, &l);
    Keep(*n.right, &r);
    return out;
  }

  /// ▷exp: the difference analysis generalized from tuple equality to an
  /// arbitrary match predicate. A left tuple with surviving matches is
  /// suppressed; it must re-appear when its *last* match expires, so the
  /// critical window is [max matching texp_S, texp_R).
  Result<DifferenceEvalResult> ExecAntiJoin(const PlanNode& n) {
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult l, Exec(*n.left));
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult r, Exec(*n.right));
    const size_t n_left = l.relation.schema().arity();
    JoinKeyIndex index(r.relation, n.expr->predicate(), n_left,
                       runner_.workers());

    struct AntiLocal {
      std::vector<Relation::Entry> result;
      std::vector<DifferencePatchEntry> helper;
      IntervalSet invalid;
      size_t common = 0;
      Timestamp tau_r = Timestamp::Infinity();
    };
    const std::vector<Relation::Entry>& lin = l.relation.entries();
    auto scan = [&](size_t begin, size_t end, AntiLocal* local) {
      for (size_t i = begin; i < end; ++i) {
        const Relation::Entry& le = lin[i];
        std::optional<Timestamp> last_match = index.MaxMatchTexp(le.tuple);
        if (!last_match.has_value()) {
          local->result.push_back(le);
          continue;
        }
        ++local->common;
        if (le.texp > *last_match) {
          local->helper.push_back({le.tuple, *last_match, le.texp});
          local->invalid.Add(*last_match, le.texp);
          local->tau_r = Timestamp::Min(local->tau_r, *last_match);
        }
      }
    };

    AntiLocal total;
    if (!runner_.parallel()) {
      scan(0, lin.size(), &total);
    } else {
      std::mutex mu;
      runner_.Run(lin.size(), [&](size_t begin, size_t end) {
        AntiLocal local;
        scan(begin, end, &local);
        std::lock_guard<std::mutex> lock(mu);
        total.result.insert(total.result.end(),
                            std::make_move_iterator(local.result.begin()),
                            std::make_move_iterator(local.result.end()));
        total.helper.insert(total.helper.end(),
                            std::make_move_iterator(local.helper.begin()),
                            std::make_move_iterator(local.helper.end()));
        for (const Interval& iv : local.invalid.intervals()) {
          total.invalid.Add(iv);
        }
        total.common += local.common;
        total.tau_r = Timestamp::Min(total.tau_r, local.tau_r);
      });
    }
    std::sort(total.helper.begin(), total.helper.end(),
              [](const DifferencePatchEntry& a,
                 const DifferencePatchEntry& b) {
                if (a.appears_at != b.appears_at) {
                  return a.appears_at < b.appears_at;
                }
                return a.tuple < b.tuple;
              });

    DifferenceEvalResult out;
    out.result.relation = Relation::FromEntriesUnchecked(
        l.relation.schema(), std::move(total.result));
    out.helper = std::move(total.helper);
    out.common_count = total.common;
    out.result.materialized_at = tau_;
    out.result.texp = Timestamp::Min({l.texp, r.texp, total.tau_r});
    if (options_.compute_validity) {
      IntervalSet v = l.validity.Intersect(r.validity);
      for (const Interval& iv : total.invalid.intervals()) v.Subtract(iv);
      out.result.validity = std::move(v);
    } else {
      out.result.validity = IntervalSet(tau_, out.result.texp);
    }
    out.children_texp = Timestamp::Min(l.texp, r.texp);
    return out;
  }

 private:
  Result<MaterializedResult> ExecNode(const PlanNode& n) {
    switch (n.op) {
      case PlanOp::kScan:
        return ExecScan(n);
      case PlanOp::kFilter:
        return ExecFilter(n);
      case PlanOp::kProject:
        return ExecProject(n);
      case PlanOp::kCrossProduct:
        return ExecProduct(n);
      case PlanOp::kUnionMerge:
        return ExecUnion(n);
      case PlanOp::kHashJoin:
        return ExecJoin(n);
      case PlanOp::kHashIntersect:
        return ExecIntersect(n);
      case PlanOp::kHashDifference: {
        EXPDB_ASSIGN_OR_RETURN(DifferenceEvalResult diff, ExecDifference(n));
        return std::move(diff.result);
      }
      case PlanOp::kHashAggregate:
        return ExecAggregate(n);
      case PlanOp::kHashSemiJoin:
        return ExecSemiJoin(n);
      case PlanOp::kHashAntiJoin: {
        EXPDB_ASSIGN_OR_RETURN(DifferenceEvalResult anti, ExecAntiJoin(n));
        return std::move(anti.result);
      }
    }
    return Status::Internal("unknown plan operator");
  }

  /// Scans `n`'s base relation at τ and copies out the live entries that
  /// satisfy `pred` (every live entry when null); `*live_rows` (optional)
  /// receives the number of live entries examined.
  Result<MaterializedResult> ExecScan(const PlanNode& n,
                                      const Predicate* pred = nullptr,
                                      uint64_t* live_rows = nullptr) {
    EXPDB_ASSIGN_OR_RETURN(const Relation* rel,
                           db_.GetRelation(n.expr->relation_name()));
    // Segment-at-a-time scan: classify each storage segment once against τ
    // via its [min_texp, max_texp] bounds. Fully-expired segments are
    // skipped without touching their entries, fully-live segments need no
    // per-tuple texp check (and are bulk copied when there is no
    // predicate), and only segments straddling τ check texp — together
    // with the predicate, which always runs on the borrowed segment
    // entries so only matches are copied. A segment whose column bounds
    // the predicate cannot match holds no match and is skipped whole.
    // Flat relations are one segment without column bounds, so the same
    // loop covers both storage modes. Morsels never span segments — each
    // segment parallelizes internally when large enough — so the
    // live/straddling decision is made once per segment, not per tuple.
    uint64_t segs_live = 0, segs_checked = 0, segs_pruned = 0;
    uint64_t segs_skipped = 0, live = 0;
    std::vector<Relation::Entry> kept;
    if (pred == nullptr) kept.reserve(rel->size());
    const size_t nsegs = rel->SegmentCount();
    for (size_t si = 0; si < nsegs; ++si) {
      const Relation::SegmentView seg = rel->GetSegment(si);
      if (seg.size == 0) continue;
      if (seg.max_texp <= tau_) {
        ++segs_pruned;
        continue;
      }
      if (pred != nullptr && seg.col_lo != nullptr &&
          !pred->MayMatchWithin(seg.col_lo, seg.col_hi)) {
        ++segs_skipped;
        continue;
      }
      const bool all_live = seg.min_texp > tau_;
      all_live ? ++segs_live : ++segs_checked;
      // Emits the matches among [begin, end); returns the live count.
      auto emit = [&](size_t begin, size_t end,
                      std::vector<Relation::Entry>* outv) -> size_t {
        if (all_live && pred == nullptr) {
          outv->insert(outv->end(), seg.data + begin, seg.data + end);
          return end - begin;
        }
        size_t n_live = 0;
        for (size_t i = begin; i < end; ++i) {
          const Relation::Entry& en = seg.data[i];
          if (!all_live && en.texp <= tau_) continue;
          ++n_live;
          if (pred == nullptr || pred->Evaluate(en.tuple)) {
            outv->push_back(en);
          }
        }
        return n_live;
      };
      if (runner_.parallel() && seg.size >= 2 * runner_.min_morsel()) {
        std::atomic<size_t> seg_live{0};
        std::vector<Relation::Entry> part = runner_.Collect(
            seg.size, [&](size_t begin, size_t end,
                          std::vector<Relation::Entry>* outv) {
              seg_live.fetch_add(emit(begin, end, outv),
                                 std::memory_order_relaxed);
            });
        live += seg_live.load(std::memory_order_relaxed);
        kept.insert(kept.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
      } else {
        live += emit(0, seg.size, &kept);
      }
    }
    if (live_rows != nullptr) *live_rows = live;
    if (profile_ != nullptr) {
      PlanProfile::NodeStats& s = profile_->at(n.id);
      s.segs_live += segs_live;
      s.segs_checked += segs_checked;
      s.segs_pruned += segs_pruned;
      s.segs_skipped += segs_skipped;
    }
    if (options_.enable_metrics && rel->segmented()) {
      const EvalMetricSet& m = EvalMetricSet::Get();
      if (segs_pruned > 0) m.segment_pruned->Increment(segs_pruned);
      if (segs_checked > 0) m.segment_checked->Increment(segs_checked);
      if (segs_skipped > 0) m.segment_skipped->Increment(segs_skipped);
    }
    MaterializedResult out;
    out.relation =
        Relation::FromEntriesUnchecked(rel->schema(), std::move(kept));
    return Monotonic(std::move(out));
  }

  Result<MaterializedResult> ExecFilter(const PlanNode& n) {
    const Predicate& p = n.expr->predicate();
    if (n.left->op == PlanOp::kScan) return ExecFilteredScan(*n.left, p);
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult child, Exec(*n.left));
    const std::vector<Relation::Entry>& in = child.relation.entries();
    // Eq. (1): result tuples retain their expiration times. A selection
    // of a set is a set, so the kept entries are loaded index-direct.
    std::vector<Relation::Entry> kept = runner_.Collect(
        in.size(),
        [&](size_t begin, size_t end, std::vector<Relation::Entry>* outv) {
          for (size_t i = begin; i < end; ++i) {
            if (p.Evaluate(in[i].tuple)) {
              outv->push_back(in[i]);
            }
          }
        });
    MaterializedResult out;
    out.relation = Relation::FromEntriesUnchecked(child.relation.schema(),
                                                  std::move(kept));
    return Inherit(std::move(out), child);
  }

  /// σ_p directly over a base scan: the scan is never materialized — p
  /// runs on the borrowed segment entries and only matches are copied
  /// (Eq. 1: they keep their texps; a scan is monotonic, so texp(e) = ∞).
  /// The scan node still gets what Exec() gives every node: a call, its
  /// live rows and segment counts in the profile, its operator metrics
  /// and a flags-only capture entry. Its time is counted in the filter's.
  Result<MaterializedResult> ExecFilteredScan(const PlanNode& scan,
                                              const Predicate& p) {
    uint64_t live = 0;
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult out, ExecScan(scan, &p, &live));
    if (profile_ != nullptr) {
      PlanProfile::NodeStats& s = profile_->at(scan.id);
      ++s.calls;
      s.rows += live;
    }
    if (options_.enable_metrics) {
      const EvalMetricSet& m = EvalMetricSet::Get();
      m.operators->Increment();
      m.per_op[static_cast<size_t>(ExprKind::kBase)]->Increment();
      m.tuples_out->Increment(live);
    }
    Capture(scan, /*pruned=*/false, /*reused=*/false);
    return out;
  }

  Result<MaterializedResult> ExecProject(const PlanNode& n) {
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult child, Exec(*n.left));
    Schema schema = n.schema;
    const std::vector<size_t>& attrs = n.expr->projection();
    MaterializedResult out;
    if (IsIdentity(attrs, child.relation.arity())) {
      // Eq. (3) on a set: no two tuples project onto one, so every tuple
      // and texp passes through unchanged — only the names may differ.
      // The child moves into the result unless the capture keeps it.
      if (KeepsOutput(*n.left)) {
        out.relation = child.relation;
      } else {
        out.relation = std::move(child.relation);
      }
      std::vector<std::string> names;
      for (const Attribute& a : n.schema.attributes()) {
        names.push_back(a.name);
      }
      EXPDB_RETURN_NOT_OK(out.relation.RenameAttributes(names));
    } else {
      const std::vector<Relation::Entry>& in = child.relation.entries();
      std::vector<Relation::Entry> projected = runner_.Collect(
          in.size(),
          [&](size_t begin, size_t end, std::vector<Relation::Entry>* outv) {
            outv->reserve(end - begin);
            for (size_t i = begin; i < end; ++i) {
              outv->push_back({in[i].tuple.Project(attrs), in[i].texp});
            }
          });
      // Eq. (3): a tuple gets the max expiration time of its duplicates.
      out.relation = Relation::FromEntriesUnchecked(
          std::move(schema), MergeMax(std::move(projected)));
    }
    Keep(*n.left, &child);
    return Inherit(std::move(out), child);
  }

  Result<MaterializedResult> ExecProduct(const PlanNode& n) {
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult l, Exec(*n.left));
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult r, Exec(*n.right));
    const std::vector<Relation::Entry>& lin = l.relation.entries();
    const std::vector<Relation::Entry>& rin = r.relation.entries();
    // Distinct (lt, rt) pairs concatenate to distinct tuples, so the
    // output is duplicate-free by construction.
    std::vector<Relation::Entry> entries = runner_.Collect(
        lin.size(),
        [&](size_t begin, size_t end, std::vector<Relation::Entry>* outv) {
          outv->reserve((end - begin) * rin.size());
          for (size_t i = begin; i < end; ++i) {
            for (const Relation::Entry& re : rin) {
              // Eq. (2): min lifetime of the participating tuples.
              outv->push_back({lin[i].tuple.Concat(re.tuple),
                               Timestamp::Min(lin[i].texp, re.texp)});
            }
          }
        });
    MaterializedResult out;
    out.relation = Relation::FromEntriesUnchecked(
        l.relation.schema().Concat(r.relation.schema()), std::move(entries));
    return Combine(std::move(out), l, r);
  }

  Result<MaterializedResult> ExecUnion(const PlanNode& n) {
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult l, Exec(*n.left));
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult r, Exec(*n.right));
    const std::vector<Relation::Entry>& lin = l.relation.entries();
    const std::vector<Relation::Entry>& rin = r.relation.entries();
    std::vector<Relation::Entry> both;
    both.reserve(lin.size() + rin.size());
    both.insert(both.end(), lin.begin(), lin.end());
    both.insert(both.end(), rin.begin(), rin.end());
    MaterializedResult out;
    // Eq. (4): tuples in both sides get the max of the two texps.
    out.relation = Relation::FromEntriesUnchecked(l.relation.schema(),
                                                  MergeMax(std::move(both)));
    Keep(*n.left, &l);
    Keep(*n.right, &r);
    return Combine(std::move(out), l, r);
  }

  Result<MaterializedResult> ExecJoin(const PlanNode& n) {
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult l, Exec(*n.left));
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult r, Exec(*n.right));
    const Schema joined = l.relation.schema().Concat(r.relation.schema());
    const Predicate& p = n.expr->predicate();
    const size_t n_left = l.relation.schema().arity();
    const size_t n_right = r.relation.schema().arity();

    // Hash-join fast path on top-level cross-side equalities; semantics
    // coincide with the paper's rewrite σ_{p'}(R ×exp S) because the full
    // predicate is re-checked on every candidate pair — except when the
    // index proves the key comparison already covers the predicate.
    //
    // The planner picks the build side by estimated cardinality
    // (n.build_left): the build-on-left variant indexes the left input
    // under the mirrored predicate and probes with right tuples, emitting
    // the same concatenated-in-left-order pairs — the output set is
    // identical either way.
    std::vector<Relation::Entry> entries;
    if (n.build_left) {
      std::map<size_t, size_t> mirror;
      for (size_t i = 0; i < n_left; ++i) mirror[i] = n_right + i;
      for (size_t j = 0; j < n_right; ++j) mirror[n_left + j] = j;
      EXPDB_ASSIGN_OR_RETURN(Predicate mirrored, p.RemapColumns(mirror));
      JoinKeyIndex index(l.relation, mirrored, n_right, runner_.workers());
      const bool covered = index.predicate_covered();
      const std::vector<Relation::Entry>& rin = r.relation.entries();
      entries = runner_.Collect(
          rin.size(),
          [&](size_t begin, size_t end, std::vector<Relation::Entry>* outv) {
            for (size_t i = begin; i < end; ++i) {
              const Relation::Entry& re = rin[i];
              const JoinKeyIndex::Group* group = index.Probe(re.tuple);
              if (group == nullptr) continue;
              for (const JoinKeyIndex::Candidate& c : group->candidates) {
                Tuple joined_tuple = c.tuple->Concat(re.tuple);
                if (covered || p.Evaluate(joined_tuple)) {
                  outv->push_back({std::move(joined_tuple),
                                   Timestamp::Min(c.texp, re.texp)});
                }
              }
            }
          });
    } else {
      JoinKeyIndex index(r.relation, p, n_left, runner_.workers());
      const bool covered = index.predicate_covered();
      const std::vector<Relation::Entry>& lin = l.relation.entries();
      entries = runner_.Collect(
          lin.size(),
          [&](size_t begin, size_t end, std::vector<Relation::Entry>* outv) {
            for (size_t i = begin; i < end; ++i) {
              const Relation::Entry& le = lin[i];
              const JoinKeyIndex::Group* group = index.Probe(le.tuple);
              if (group == nullptr) continue;
              for (const JoinKeyIndex::Candidate& c : group->candidates) {
                Tuple joined_tuple = le.tuple.Concat(*c.tuple);
                if (covered || p.Evaluate(joined_tuple)) {
                  outv->push_back({std::move(joined_tuple),
                                   Timestamp::Min(le.texp, c.texp)});
                }
              }
            }
          });
    }
    MaterializedResult out;
    out.relation = Relation::FromEntriesUnchecked(joined, std::move(entries));
    Keep(*n.left, &l);
    Keep(*n.right, &r);
    return Combine(std::move(out), l, r);
  }

  Result<MaterializedResult> ExecIntersect(const PlanNode& n) {
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult l, Exec(*n.left));
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult r, Exec(*n.right));
    const std::vector<Relation::Entry>& lin = l.relation.entries();
    std::vector<Relation::Entry> entries = runner_.Collect(
        lin.size(),
        [&](size_t begin, size_t end, std::vector<Relation::Entry>* outv) {
          for (size_t i = begin; i < end; ++i) {
            auto rtexp = r.relation.GetTexp(lin[i].tuple);
            // Eq. (6): minima of the expiration times of the participating
            // tuples (inherited from the inner ×exp of the rewrite).
            if (rtexp.has_value()) {
              outv->push_back(
                  {lin[i].tuple, Timestamp::Min(lin[i].texp, *rtexp)});
            }
          }
        });
    MaterializedResult out;
    out.relation = Relation::FromEntriesUnchecked(l.relation.schema(),
                                                  std::move(entries));
    Keep(*n.left, &l);
    Keep(*n.right, &r);
    return Combine(std::move(out), l, r);
  }

  /// ⋉exp: π_{R}(R ⋈exp_p S) with the derived expiration min(texp_R(r),
  /// max{texp_S(s) | s matches r}) — the projection's max-of-duplicates
  /// over the join's min-of-pairs. Monotonic.
  Result<MaterializedResult> ExecSemiJoin(const PlanNode& n) {
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult l, Exec(*n.left));
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult r, Exec(*n.right));
    const size_t n_left = l.relation.schema().arity();
    JoinKeyIndex index(r.relation, n.expr->predicate(), n_left,
                       runner_.workers());

    const std::vector<Relation::Entry>& lin = l.relation.entries();
    std::vector<Relation::Entry> entries = runner_.Collect(
        lin.size(),
        [&](size_t begin, size_t end, std::vector<Relation::Entry>* outv) {
          for (size_t i = begin; i < end; ++i) {
            std::optional<Timestamp> last_match =
                index.MaxMatchTexp(lin[i].tuple);
            if (last_match.has_value()) {
              outv->push_back(
                  {lin[i].tuple, Timestamp::Min(lin[i].texp, *last_match)});
            }
          }
        });
    MaterializedResult out;
    out.relation = Relation::FromEntriesUnchecked(l.relation.schema(),
                                                  std::move(entries));
    Keep(*n.left, &l);
    Keep(*n.right, &r);
    return Combine(std::move(out), l, r);
  }

  Result<MaterializedResult> ExecAggregate(const PlanNode& n) {
    EXPDB_ASSIGN_OR_RETURN(MaterializedResult child, Exec(*n.left));
    Schema schema = n.schema;  // inferred (and validated) at plan time
    const AggregateFunction& f = n.expr->aggregate();

    // Stable storage for partition entries: the child's dense entry array
    // does not move while PartitionEntry pointers reference it.
    const std::vector<Relation::Entry>& entries = child.relation.entries();
    const std::vector<size_t>& gb = n.expr->group_by();

    struct AggLocal {
      std::vector<Relation::Entry> result;
      Timestamp texp_cap = Timestamp::Infinity();
      /// (change_cap, death) of partitions that invalidate the expression.
      std::vector<std::pair<Timestamp, Timestamp>> invalid;
      Status status = Status::OK();
    };
    // φexp (Eq. 7): partitioning by equality on the grouping attributes
    // (SQL GROUP BY); see GroupRows.
    auto replay_groups = [&](const Groups& groups, AggLocal* local) {
      for (size_t g = 0; g < groups.size(); ++g) {
        const std::span<const PartitionEntry> partition = groups[g];
        Result<PartitionAnalysis> analyzed =
            options_.aggregate_tolerance > 0
                ? AnalyzeApproxPartition(partition, f,
                                         options_.aggregate_tolerance)
                : AnalyzePartition(partition, f, options_.aggregate_mode);
        if (!analyzed.ok()) {
          local->status = analyzed.status();
          return;
        }
        const PartitionAnalysis& analysis = analyzed.value();
        if (n.per_group) {
          // The projection above keeps only the longest-lived member's
          // row (see PlanNode::per_group); the others are never built.
          const PartitionEntry* top = &partition.front();
          for (const PartitionEntry& entry : partition) {
            if (LivesLonger(*entry.tuple, entry.texp, *top->tuple, top->texp)) {
              top = &entry;
            }
          }
          local->result.push_back(
              AggregateRow(*top->tuple, top->texp, analysis));
        } else {
          for (const PartitionEntry& entry : partition) {
            local->result.push_back(
                AggregateRow(*entry.tuple, entry.texp, analysis));
          }
        }
        if (analysis.invalidates_expression) {
          local->texp_cap =
              Timestamp::Min(local->texp_cap, analysis.change_cap);
          local->invalid.emplace_back(analysis.change_cap, analysis.death);
        }
      }
    };

    AggLocal total;
    const size_t P = Partitions(entries.size());
    if (P == 1) {
      replay_groups(GroupRows(entries, gb), &total);
    } else {
      // Scatter entry pointers by group-key hash, so every group lands
      // wholly inside one partition; partitions then group and replay
      // independently in parallel.
      auto part = [&](size_t i) {
        return PartitionOf(entries[i].tuple.HashOfColumns(gb), P);
      };
      auto pointer = [&](size_t i) { return &entries[i]; };
      auto parts = Scatter(entries.size(), part, pointer, P);
      std::mutex mu;
      runner_.RunTasks(P, [&](size_t pb, size_t pe) {
        for (size_t p = pb; p < pe; ++p) {
          AggLocal local;
          replay_groups(GroupRows(parts[p], gb), &local);
          std::lock_guard<std::mutex> lock(mu);
          total.result.insert(total.result.end(),
                              std::make_move_iterator(local.result.begin()),
                              std::make_move_iterator(local.result.end()));
          total.texp_cap = Timestamp::Min(total.texp_cap, local.texp_cap);
          total.invalid.insert(total.invalid.end(), local.invalid.begin(),
                               local.invalid.end());
          if (total.status.ok() && !local.status.ok()) {
            total.status = local.status;
          }
        }
      });
    }
    EXPDB_RETURN_NOT_OK(total.status);

    MaterializedResult out;
    // Source tuples are unique and each contributes at most one result
    // tuple.
    out.relation = Relation::FromEntriesUnchecked(std::move(schema),
                                                  std::move(total.result));
    Keep(*n.left, &child);
    Timestamp texp_e = Timestamp::Min(child.texp, total.texp_cap);
    out.texp = texp_e;
    if (options_.compute_validity) {
      IntervalSet validity = child.validity;
      // The partition's contribution is wrong from the change until the
      // partition has fully expired; afterwards both the materialization
      // and recomputation are empty for it.
      for (const auto& [cap, death] : total.invalid) {
        validity.Subtract(cap, death);
      }
      out.validity = std::move(validity);
    } else {
      out.validity = IntervalSet(tau_, texp_e);
    }
    out.materialized_at = tau_;
    return out;
  }

  /// How many hash partitions a partitioned operator (π, ∪, φ) splits
  /// `n` input rows into: one per worker when parallel and the input is
  /// large enough to share, else one.
  size_t Partitions(size_t n) const {
    if (!runner_.parallel() || n < 2 * runner_.min_morsel()) return 1;
    return runner_.workers();
  }

  /// Routes rows [0, n) into `parts` partitions: row i goes, as
  /// `item(i)`, to partition `part(i)`. P static chunks scatter in
  /// parallel; each partition then keeps its rows in chunk order.
  template <typename Part, typename Item,
            typename T = std::invoke_result_t<const Item&, size_t>>
  std::vector<std::vector<T>> Scatter(size_t n, const Part& part,
                                      const Item& item, size_t parts) const {
    std::vector<std::vector<std::vector<T>>> scat(
        parts, std::vector<std::vector<T>>(parts));
    const size_t chunk = (n + parts - 1) / parts;
    runner_.RunTasks(parts, [&](size_t cb, size_t ce) {
      for (size_t c = cb; c < ce; ++c) {
        const size_t begin = std::min(c * chunk, n);
        const size_t end = std::min(begin + chunk, n);
        for (size_t i = begin; i < end; ++i) {
          scat[c][part(i)].push_back(item(i));
        }
      }
    });
    std::vector<std::vector<T>> out(parts);
    runner_.RunTasks(parts, [&](size_t pb, size_t pe) {
      for (size_t p = pb; p < pe; ++p) {
        for (std::vector<std::vector<T>>& from : scat) {
          out[p].insert(out[p].end(), std::make_move_iterator(from[p].begin()),
                        std::make_move_iterator(from[p].end()));
        }
      }
    });
    return out;
  }

  /// The max-merge of πexp/∪exp (Eqs. 3–4) over `in`: MergeMaxInPlace on
  /// the whole input, or, with several partitions, on each tuple-hash
  /// partition in parallel. Equal tuples share a partition, so the
  /// merged partitions are disjoint and simply concatenate.
  std::vector<Relation::Entry> MergeMax(std::vector<Relation::Entry> in) const {
    const size_t P = Partitions(in.size());
    if (P == 1) {
      MergeMaxInPlace(&in);
      return in;
    }
    auto part = [&](size_t i) { return PartitionOf(in[i].tuple.Hash(), P); };
    auto take = [&](size_t i) { return std::move(in[i]); };
    auto parts = Scatter(in.size(), part, take, P);
    runner_.RunTasks(P, [&](size_t pb, size_t pe) {
      for (size_t p = pb; p < pe; ++p) MergeMaxInPlace(&parts[p]);
    });
    std::vector<Relation::Entry> out;
    out.reserve(in.size());
    for (std::vector<Relation::Entry>& part : parts) {
      out.insert(out.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    return out;
  }

  // --- texp(e) / validity composition helpers -----------------------------

  /// Monotonic leaf: texp(e) = ∞, valid from τ on.
  MaterializedResult Monotonic(MaterializedResult out) {
    out.materialized_at = tau_;
    out.texp = Timestamp::Infinity();
    out.validity = IntervalSet::From(tau_);
    return out;
  }

  /// Unary monotonic operator: texp and validity pass through (Sec. 2.3).
  MaterializedResult Inherit(MaterializedResult out,
                             const MaterializedResult& child) {
    out.materialized_at = tau_;
    out.texp = child.texp;
    out.validity = options_.compute_validity ? child.validity
                                             : IntervalSet(tau_, out.texp);
    return out;
  }

  /// Binary monotonic operator: texp(e) = min of the arguments' texps
  /// (Sec. 2.3); validity is the intersection.
  MaterializedResult Combine(MaterializedResult out,
                             const MaterializedResult& l,
                             const MaterializedResult& r) {
    out.materialized_at = tau_;
    out.texp = Timestamp::Min(l.texp, r.texp);
    out.validity = options_.compute_validity
                       ? l.validity.Intersect(r.validity)
                       : IntervalSet(tau_, out.texp);
    return out;
  }

  /// Records `n`'s flags in the capture. Its output, when a stateful
  /// parent seeds from it, arrives later through Keep.
  void Capture(const PlanNode& n, bool pruned, bool reused) {
    if (capture_ == nullptr) return;
    NodeCapture::Entry& e = capture_->nodes[n.id];
    e.pruned = pruned;
    e.reused = reused;
  }

  /// Whether the capture keeps `child`'s output (see NodeCapture).
  bool KeepsOutput(const PlanNode& child) const {
    return capture_ != nullptr && seed_inputs_[child.id];
  }

  /// Called by a stateful parent once it has built its own output from
  /// `child`'s: moves that output into the capture, which then owns it.
  /// A pruned child keeps none (its output is empty).
  void Keep(const PlanNode& child, MaterializedResult* result) {
    if (!KeepsOutput(child)) return;
    NodeCapture::Entry& e = capture_->nodes[child.id];
    if (!e.pruned) e.relation = std::move(result->relation);
  }

  void MarkSeedInputs(const PlanNode& n) {
    for (const PlanNode* child : {n.left.get(), n.right.get()}) {
      if (child == nullptr) continue;
      if (SeedsFromChildren(n.op)) seed_inputs_[child->id] = true;
      MarkSeedInputs(*child);
    }
  }

  /// The empty materialization an elided subtree stands for (exact — see
  /// the prune argument in Exec()).
  MaterializedResult EmptyResult(const PlanNode& n) const {
    MaterializedResult out;
    out.relation = Relation(n.schema);
    out.materialized_at = tau_;
    out.texp = Timestamp::Infinity();
    out.validity = IntervalSet::From(tau_);
    return out;
  }

  /// Live texp upper bound of the subtree at `n`: max over its scans'
  /// Relation::texp_upper_bound(). Computed per execution so cached plans
  /// see fresh data and the current τ.
  Timestamp ComputeBound(const PlanNode& n) {
    Timestamp bound = Timestamp::Zero();
    if (n.op == PlanOp::kScan) {
      auto rel = db_.GetRelation(n.expr->relation_name());
      // Unknown relation: don't prune — let execution surface the error.
      bound = rel.ok() ? (*rel)->texp_upper_bound() : Timestamp::Infinity();
    } else {
      if (n.left != nullptr) {
        bound = Timestamp::Max(bound, ComputeBound(*n.left));
      }
      if (n.right != nullptr) {
        bound = Timestamp::Max(bound, ComputeBound(*n.right));
      }
    }
    bounds_[n.id] = bound;
    return bound;
  }

  const PhysicalPlan& plan_;
  const Database& db_;
  Timestamp tau_;
  EvalOptions options_;
  MorselRunner runner_;
  PlanProfile* profile_;
  NodeCapture* capture_;
  /// Per node: does a stateful parent seed from its output? (Empty when
  /// not capturing.)
  std::vector<bool> seed_inputs_;
  /// Per-node live texp upper bounds (empty when pruning is off).
  std::vector<Timestamp> bounds_;
  /// Results of already-materialized common subtrees, by cse_id.
  std::unordered_map<int32_t, MaterializedResult> cse_cache_;
};

}  // namespace

Relation::Entry AggregateRow(const Tuple& member, Timestamp texp,
                             const PartitionAnalysis& analysis) {
  // The row dies with its source tuple or when the partition's aggregate
  // value changes, whichever is earlier.
  return {member.Append(analysis.value),
          Timestamp::Min(texp, analysis.change_cap)};
}

bool LivesLonger(const Tuple& a, Timestamp xa, const Tuple& b, Timestamp xb) {
  return xa != xb ? xa > xb : a < b;
}

size_t ResolveWorkers(size_t parallelism) {
  if (parallelism == 1) return 1;
  if (parallelism == 0) {
    return std::max<size_t>(2, std::thread::hardware_concurrency());
  }
  return parallelism;
}

Result<MaterializedResult> ExecutePlan(const PhysicalPlan& plan,
                                       const Database& db, Timestamp tau,
                                       const EvalOptions& options,
                                       PlanProfile* profile,
                                       NodeCapture* capture) {
  PlanExecutor executor(plan, db, tau, options, profile, capture);
  auto run = [&]() -> Result<MaterializedResult> {
    if (profile != nullptr) {
      profile->Resize(plan.node_count());
      const int64_t t0 = obs::SteadyNowNs();
      Result<MaterializedResult> r = executor.Exec(plan.root());
      profile->total_ns = obs::SteadyNowNs() - t0;
      return r;
    }
    return executor.Exec(plan.root());
  };
  if (!options.enable_metrics) return run();
  const EvalMetricSet& m = EvalMetricSet::Get();
  m.evaluations->Increment();
  obs::ScopedSpan span("eval.root", m.latency);
  return run();
}

Result<DifferenceEvalResult> ExecutePlanDifferenceRoot(
    const PhysicalPlan& plan, const Database& db, Timestamp tau,
    const EvalOptions& options, PlanProfile* profile,
    NodeCapture* capture) {
  const PlanNode& root = plan.root();
  if (root.op != PlanOp::kHashDifference &&
      root.op != PlanOp::kHashAntiJoin) {
    return Status::InvalidArgument(
        "ExecutePlanDifferenceRoot requires a difference or anti-join root");
  }
  PlanExecutor executor(plan, db, tau, options, profile, capture);
  auto run = [&]() -> Result<DifferenceEvalResult> {
    PlanProfile::NodeStats* stats = nullptr;
    int64_t t0 = 0;
    if (profile != nullptr) {
      profile->Resize(plan.node_count());
      stats = &profile->at(root.id);
      ++stats->calls;
      t0 = obs::SteadyNowNs();
    }
    Result<DifferenceEvalResult> r =
        root.op == PlanOp::kHashAntiJoin ? executor.ExecAntiJoin(root)
                                         : executor.ExecDifference(root);
    if (profile != nullptr) {
      const int64_t elapsed = obs::SteadyNowNs() - t0;
      stats->wall_ns += elapsed;
      profile->total_ns = elapsed;
      if (r.ok()) stats->rows += r.value().result.relation.size();
    }
    return r;
  };
  // The root does not go through Exec() on this entry point, so it is
  // recorded here (children are captured by Exec). No parent seeds from a
  // root, so its entry carries flags only.
  auto finish = [&](Result<DifferenceEvalResult> r) {
    if (r.ok() && capture != nullptr) capture->nodes[root.id] = {};
    return r;
  };
  if (!options.enable_metrics) return finish(run());
  const size_t k = static_cast<size_t>(root.expr->kind());
  const EvalMetricSet& m = EvalMetricSet::Get();
  m.evaluations->Increment();
  m.operators->Increment();
  if (k < kNumOpKinds) m.per_op[k]->Increment();
  obs::ScopedSpan span("eval.root", m.latency);
  Result<DifferenceEvalResult> r = run();
  if (r.ok()) m.tuples_out->Increment(r.value().result.relation.size());
  return finish(std::move(r));
}

}  // namespace plan
}  // namespace expdb
