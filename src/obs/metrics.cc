#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace expdb {
namespace obs {

// --- Escaping ------------------------------------------------------------

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string PrometheusEscapeHelp(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string PrometheusEscapeLabel(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// --- Histogram -----------------------------------------------------------

std::vector<int64_t> Histogram::ExponentialBounds(int64_t start,
                                                  double factor,
                                                  size_t count) {
  std::vector<int64_t> bounds;
  bounds.reserve(count);
  double v = static_cast<double>(start < 1 ? 1 : start);
  int64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    int64_t b = static_cast<int64_t>(v);
    if (b <= prev) b = prev + 1;  // keep strictly increasing
    bounds.push_back(b);
    prev = b;
    v *= factor;
  }
  return bounds;
}

std::vector<int64_t> Histogram::DefaultLatencyBounds() {
  // 256ns, 1µs, 4µs, ..., x4 for 13 buckets => top bound ~4.3s.
  return ExponentialBounds(256, 4.0, 13);
}

Histogram::Histogram(std::vector<int64_t> bounds, Histogram* parent)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      parent_(parent) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  if (buckets_.size() != bounds_.size() + 1) {
    // Dedup shrank the bounds; rebuild the bucket array to match.
    std::vector<std::atomic<uint64_t>> rebuilt(bounds_.size() + 1);
    buckets_.swap(rebuilt);
  }
}

Histogram::Histogram(const Histogram& other)
    : bounds_(other.bounds_),
      buckets_(other.bounds_.size() + 1),
      parent_(other.parent_) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  count_.store(other.count(), std::memory_order_relaxed);
  sum_.store(other.sum(), std::memory_order_relaxed);
  min_.store(other.min_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  max_.store(other.max_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  Histogram copy(other);
  bounds_ = copy.bounds_;
  buckets_.swap(copy.buckets_);
  count_.store(copy.count(), std::memory_order_relaxed);
  sum_.store(copy.sum(), std::memory_order_relaxed);
  min_.store(copy.min_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  max_.store(copy.max_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  parent_ = copy.parent_;
  return *this;
}

void Histogram::Record(int64_t value) {
  const size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  const uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) {
    // First sample initializes min/max; concurrent first samples race
    // benignly through the CAS loops below.
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  }
  int64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  if (parent_ != nullptr) parent_->Record(value);
}

int64_t Histogram::min() const {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

int64_t Histogram::max() const {
  return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Percentile(double p) const {
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // 1-based rank of the percentile sample.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total)));
  rank = std::clamp<uint64_t>(rank, 1, total);

  const int64_t observed_min = min();
  const int64_t observed_max = max();
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (cumulative + counts[i] >= rank) {
      const double lo = static_cast<double>(i == 0 ? 0 : bounds_[i - 1]);
      const double hi = static_cast<double>(
          i < bounds_.size() ? bounds_[i] : observed_max);
      const double within =
          static_cast<double>(rank - cumulative) /
          static_cast<double>(counts[i]);
      const double v = lo + within * (hi - lo);
      return std::clamp(v, static_cast<double>(observed_min),
                        static_cast<double>(observed_max));
    }
    cumulative += counts[i];
  }
  return static_cast<double>(observed_max);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// --- MetricSnapshot ------------------------------------------------------

std::string_view MetricSnapshot::KindName() const {
  switch (kind) {
    case Kind::kCounter:
      return "counter";
    case Kind::kGauge:
      return "gauge";
    case Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

// --- MetricsRegistry -----------------------------------------------------

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = MetricSnapshot::Kind::kCounter;
    entry.help = help;
    entry.counter = std::make_unique<Counter>();
    it = metrics_.emplace(name, std::move(entry)).first;
  }
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = MetricSnapshot::Kind::kGauge;
    entry.help = help;
    entry.gauge = std::make_unique<Gauge>();
    it = metrics_.emplace(name, std::move(entry)).first;
  }
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = MetricSnapshot::Kind::kHistogram;
    entry.help = help;
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = metrics_.emplace(name, std::move(entry)).first;
  }
  return it->second.histogram.get();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.help = entry.help;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricSnapshot::Kind::kCounter:
        if (entry.counter != nullptr) {
          snap.value = static_cast<double>(entry.counter->value());
        }
        break;
      case MetricSnapshot::Kind::kGauge:
        if (entry.gauge != nullptr) {
          snap.value = static_cast<double>(entry.gauge->value());
        }
        break;
      case MetricSnapshot::Kind::kHistogram:
        if (entry.histogram != nullptr) {
          const Histogram& h = *entry.histogram;
          // One read of the buckets is the scrape's source of truth:
          // `count` is their total, so the +Inf bucket equals `_count`
          // even while other threads Record (count_ is bumped separately
          // from the bucket and may be mid-update).
          snap.bucket_counts = h.BucketCounts();
          for (uint64_t c : snap.bucket_counts) snap.count += c;
          snap.sum = h.sum();
          snap.value = snap.count == 0 ? 0.0
                                       : static_cast<double>(snap.sum) /
                                             static_cast<double>(snap.count);
          snap.p50 = h.Percentile(50.0);
          snap.p95 = h.Percentile(95.0);
          snap.p99 = h.Percentile(99.0);
          snap.bucket_bounds = h.bounds();
        }
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

std::string FormatDouble(double v) {
  // Integral values print without a fractional part; everything else
  // keeps full precision (good enough for scraping and humans alike).
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  for (const MetricSnapshot& m : Snapshot()) {
    if (!m.help.empty()) {
      out += "# HELP " + m.name + " " + PrometheusEscapeHelp(m.help) + "\n";
    }
    out += "# TYPE " + m.name + " " + std::string(m.KindName()) + "\n";
    if (m.kind == MetricSnapshot::Kind::kHistogram) {
      uint64_t cumulative = 0;
      for (size_t i = 0; i < m.bucket_counts.size(); ++i) {
        cumulative += m.bucket_counts[i];
        const std::string le =
            i < m.bucket_bounds.size()
                ? std::to_string(m.bucket_bounds[i])
                : std::string("+Inf");
        out += m.name + "_bucket{le=\"" + PrometheusEscapeLabel(le) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      out += m.name + "_sum " + std::to_string(m.sum) + "\n";
      out += m.name + "_count " + std::to_string(m.count) + "\n";
    } else {
      out += m.name + " " + FormatDouble(m.value) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::JsonText() const {
  std::string out = "[";
  bool first = true;
  for (const MetricSnapshot& m : Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(m.name) + "\",\"type\":\"" +
           std::string(m.KindName()) + "\"";
    if (m.kind == MetricSnapshot::Kind::kHistogram) {
      out += ",\"count\":" + std::to_string(m.count) +
             ",\"sum\":" + std::to_string(m.sum) +
             ",\"mean\":" + FormatDouble(m.value) +
             ",\"p50\":" + FormatDouble(m.p50) +
             ",\"p95\":" + FormatDouble(m.p95) +
             ",\"p99\":" + FormatDouble(m.p99);
    } else {
      out += ",\"value\":" + FormatDouble(m.value);
    }
    out += "}";
  }
  out += "]";
  return out;
}

size_t MetricsRegistry::MetricCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : metrics_) {
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

void RegisterStandardMetrics(MetricsRegistry& r) {
  // core/eval ------------------------------------------------------------
  r.GetCounter("expdb_eval_evaluations_total",
               "Root-level expression evaluations");
  r.GetCounter("expdb_eval_operators_total",
               "Operator nodes evaluated (all kinds)");
  r.GetCounter("expdb_eval_tuples_out_total",
               "Tuples produced by operator nodes");
  r.GetHistogram("expdb_eval_latency_ns",
                 "Root evaluation wall time (ns)");
  r.GetCounter("expdb_eval_parallel_loops_total",
               "Operator scans executed as parallel morsel loops");
  r.GetCounter("expdb_eval_parallel_morsels_total",
               "Morsels processed by parallel operator scans");
  r.GetCounter("expdb_eval_parallel_fallback_total",
               "Parallel-eligible scans run serially (below morsel cutoff)");
  r.GetHistogram("expdb_eval_parallel_morsel_latency_ns",
                 "Per-morsel wall time of parallel operator scans (ns)");
  // Per-segment scan outcomes (docs/PERFORMANCE.md §8).
  r.GetCounter("expdb_segment_pruned_total",
               "Storage segments skipped by scans (fully expired at τ)");
  r.GetCounter(
      "expdb_segment_checked_total",
      "Storage segments scanned with per-tuple texp checks (straddle τ)");
  r.GetCounter("expdb_segment_skipped_total",
               "Unexpired storage segments skipped because their column "
               "bounds cannot match the scan's predicate");
  // plan -----------------------------------------------------------------
  r.GetCounter("expdb_plan_plans_total",
               "Physical plans produced by the planner");
  r.GetCounter("expdb_plan_rewrite_passes_total",
               "Sec. 3.1 rewrite passes run during planning");
  r.GetCounter("expdb_plan_cache_hits_total",
               "Executions served from a cached physical plan");
  r.GetCounter("expdb_plan_pruned_subtrees_total",
               "Plan subtrees skipped because every base tuple expired");
  r.GetCounter("expdb_plan_cse_reuses_total",
               "Common-subtree results reused within one execution");
  r.GetHistogram("expdb_plan_latency_ns", "Planning wall time (ns)");
  r.GetCounter("expdb_result_cache_hits_total",
               "Statements served from the expiration-stamped result cache");
  r.GetCounter("expdb_result_cache_misses_total",
               "Result-cache lookups that fell through to execution");
  r.GetCounter("expdb_result_cache_patches_total",
               "Result-cache hits served after delta patching the entry");
  r.GetCounter("expdb_result_cache_evictions_total",
               "Result-cache entries evicted by the LRU byte budget");
  r.GetCounter("expdb_result_cache_admissions_total",
               "Result-cache fills admitted on their key's second sighting");
  r.GetCounter("expdb_result_cache_rejections_total",
               "Result-cache fills skipped on their key's first sighting");
  r.GetGauge("expdb_result_cache_bytes",
             "Estimated bytes held by result caches");
  r.GetHistogram("expdb_result_cache_lookup_latency_ns",
                 "Result-cache lookup latency (ns)");
  // expiration -----------------------------------------------------------
  r.GetCounter("expdb_expiration_inserted_total",
               "Tuples routed through ExpirationManager::Insert");
  r.GetCounter("expdb_expiration_removed_total",
               "Tuples physically removed on expiry");
  r.GetCounter("expdb_expiration_triggers_fired_total",
               "Expiration trigger invocations");
  r.GetCounter("expdb_expiration_compactions_total",
               "Lazy compaction passes");
  r.GetHistogram("expdb_expiration_drain_latency_ns",
                 "Eager drain / lazy compaction wall time (ns)");
  // view -----------------------------------------------------------------
  r.GetCounter("expdb_view_recomputations_total",
               "Full view re-evaluations (excludes initial builds)");
  r.GetCounter("expdb_view_reads_total", "View reads served");
  r.GetCounter("expdb_view_reads_from_materialization_total",
               "View reads served without recomputation");
  r.GetCounter("expdb_view_reads_moved_backward_total",
               "Schrodinger reads served at an earlier valid time");
  r.GetCounter("expdb_view_reads_moved_forward_total",
               "Schrodinger reads served at a later valid time");
  r.GetCounter("expdb_view_patches_applied_total",
               "Theorem 3 helper tuples patched into views");
  r.GetCounter("expdb_view_tuples_recomputed_total",
               "Tuples produced by view recomputations");
  r.GetCounter("expdb_view_marked_stale_total",
               "Views marked stale by explicit base updates");
  r.GetCounter("expdb_view_notifications_total",
               "ViewManager::NotifyBaseChanged calls");
  r.GetGauge("expdb_view_count", "Live materialized views");
  r.GetGauge("expdb_view_pending_patches",
             "Helper entries not yet patched, across views");
  r.GetGauge("expdb_view_materialized_tuples",
             "Tuples stored in materializations, across views");
  r.GetHistogram("expdb_view_recompute_latency_ns",
                 "Staleness-repair (recompute) wall time (ns)");
  // replica --------------------------------------------------------------
  r.GetCounter("expdb_replica_messages_total",
               "Messages crossing the simulated network");
  r.GetCounter("expdb_replica_tuples_transferred_total",
               "Tuples crossing the simulated network");
  r.GetCounter("expdb_replica_fetches_total",
               "Server-side query fetches served");
  r.GetCounter("expdb_replica_helper_entries_total",
               "Theorem 3 helper entries shipped to clients");
  r.GetCounter("expdb_replica_refreshes_total",
               "Client-side subscription re-fetches");
  // engine ---------------------------------------------------------------
  r.GetCounter("expdb_engine_snapshots_total",
               "Read snapshots opened by the engine");
  r.GetCounter("expdb_engine_write_waits_total",
               "Write-lock acquisitions that had to block behind a holder");
  r.GetCounter("expdb_engine_maintenance_runs_total",
               "Background maintenance passes completed");
  r.GetCounter("expdb_engine_maintenance_removed_total",
               "Tuples physically removed by background maintenance");
  r.GetGauge("expdb_engine_sessions", "Live sessions attached to engines");
  r.GetHistogram("expdb_engine_maintenance_latency_ns",
                 "Background maintenance pass wall time (ns)");
  // sql ------------------------------------------------------------------
  r.GetCounter("expdb_sql_statements_total", "SQL statements executed");
  r.GetCounter("expdb_sql_errors_total", "SQL statements that failed");
  r.GetCounter("expdb_sql_slow_queries_total",
               "Statements exceeding the SET slow_query_ns threshold");
  r.GetHistogram("expdb_sql_statement_latency_ns",
                 "Statement execution wall time (ns)");
  // obs ------------------------------------------------------------------
  r.GetCounter("expdb_trace_spans_dropped_total",
               "Trace spans overwritten by ring overflow before export");
  r.GetCounter("expdb_log_events_total", "Structured log events emitted");
  r.GetCounter("expdb_log_events_dropped_total",
               "Structured log events overwritten by ring overflow");
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = [] {
    auto* r = new MetricsRegistry();
    RegisterStandardMetrics(*r);
    return r;
  }();
  return *global;
}

}  // namespace obs
}  // namespace expdb
