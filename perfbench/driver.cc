// End-to-end benchmark driver: opens N sql::Sessions over one shared
// engine::Engine and runs a workload as a closed loop (each session sends
// its next statement when the previous one returns).
//
//   perfbench_driver --workload <scan_read|hot_cache|ttl_churn> --seed <n>
//                    --seconds <s> --trace <0|1> [--commit <sha>]
//                    [--spans-out <file>]
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 runs the drift guard, then an untraced and a traced window of
// half the length each, and prints the per-layer metrics. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the line before it is the run record.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <thread>

#include "bench.h"
#include "engine/maintenance.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

namespace sql = expdb::sql;
using expdb::engine::Engine;
using expdb::engine::EngineOptions;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = std::stoi(value);
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && IsWorkloadName(args->workload) &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

/// Minimal JSON object writer; numbers keep all their digits.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  Json& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    return Raw(key, quoted + "\"");
  }
  Json& Raw(const std::string& key, const std::string& v) {
    out_ += (out_.empty() ? "{" : ", ") + ("\"" + key + "\": ") + v;
    return *this;
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string JsonArray(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (out.empty() ? "" : ", ") + std::string(buf);
  }
  return "[" + out + "]";
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

/// CPU time the hypervisor stole from this host's vCPUs, all CPUs summed
/// (the steal column of /proc/stat, in USER_HZ = 100 ticks per second).
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  stat >> cpu;
  for (double& x : v) stat >> x;
  return v[7] / 100;
}

/// Registry values by name: counters and gauges by value, histograms by
/// count.
std::map<std::string, double> RegistryValues() {
  std::map<std::string, double> out;
  for (const expdb::obs::MetricSnapshot& m :
       expdb::obs::MetricsRegistry::Global().Snapshot()) {
    out[m.name] = m.kind == expdb::obs::MetricSnapshot::Kind::kHistogram
                      ? static_cast<double>(m.count)
                      : m.value;
  }
  return out;
}

/// The registry counters the benchmark reports, as deltas over a window.
const char* const kRegistryCounters[] = {
    "expdb_result_cache_hits_total",
    "expdb_result_cache_misses_total",
    "expdb_result_cache_patches_total",
    "expdb_result_cache_evictions_total",
    "expdb_plan_cache_hits_total",
    "expdb_segment_pruned_total",
    "expdb_segment_checked_total",
    "expdb_segment_dropped_total",
    "expdb_expiration_index_pushes_total",
    "expdb_expiration_index_pops_total",
    "expdb_expiration_stale_entries_total",
    "expdb_expiration_removed_total",
    "expdb_engine_snapshots_total",
    "expdb_engine_write_waits_total",
    "expdb_view_delta_applies_total",
    "expdb_view_delta_fallbacks_total",
    "expdb_view_recomputations_total",
    "expdb_view_reads_total",
    "expdb_engine_maintenance_runs_total",
    "expdb_engine_maintenance_removed_total",
};

struct Deltas {
  std::map<std::string, double> before;
  std::map<std::string, double> after;
  double operator[](const std::string& name) const {
    auto b = before.find(name), a = after.find(name);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  }
  double End(const std::string& name) const {
    auto a = after.find(name);
    return a == after.end() ? 0 : a->second;
  }
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Latencies in ~1%-wide logarithmic buckets. Each bucket also sums its
/// samples, so a percentile reads as the mean of the samples in its bucket
/// rather than as a bucket edge. Fixed size: the driver's own memory does
/// not grow with throughput and stays out of peak_rss_mb.
class LatencyHistogram {
 public:
  void Add(int64_t ns) {
    const size_t b = Bucket(ns);
    ++count_[b];
    sum_[b] += static_cast<double>(ns);
    ++n_;
  }
  void Merge(const LatencyHistogram& o) {
    for (size_t b = 0; b < kBuckets; ++b) {
      count_[b] += o.count_[b];
      sum_[b] += o.sum_[b];
    }
    n_ += o.n_;
  }
  uint64_t count() const { return n_; }
  /// The q-quantile in microseconds (0 when empty).
  double PercentileUs(double q) const {
    const uint64_t rank = std::max<uint64_t>(1, std::ceil(q * n_));
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += count_[b];
      if (count_[b] > 0 && seen >= rank) return sum_[b] / count_[b] / 1000;
    }
    return 0;
  }

 private:
  static constexpr size_t kBuckets = 3200;  // 1.01^3200 ns is beyond any run
  static size_t Bucket(int64_t ns) {
    if (ns <= 1) return 0;
    return std::min(kBuckets - 1,
                    static_cast<size_t>(std::log(static_cast<double>(ns)) /
                                        std::log(1.01)));
  }
  std::vector<uint64_t> count_ = std::vector<uint64_t>(kBuckets);
  std::vector<double> sum_ = std::vector<double>(kBuckets);
  uint64_t n_ = 0;
};

// The window's end-to-end metrics are medians over ten equal slices of
// it, so a burst of interference on a shared host moves only the slices
// it covers.
constexpr size_t kSlices = 10;

struct Setup {
  std::unique_ptr<Workload> workload;
  std::shared_ptr<Engine> engine;
  double seconds = 0;
  std::string error;
};

Setup MakeSetup(const Args& args, bool background_maintenance) {
  Setup out;
  out.workload = MakeWorkload(args.workload, args.seed);
  EngineOptions options;
  options.start_maintenance =
      background_maintenance && out.workload->maintenance();
  const int64_t t0 = NowNs();
  out.engine = std::make_shared<Engine>(options);
  sql::Session session(out.engine);
  Status s = out.workload->Setup(session);
  out.seconds = (NowNs() - t0) / 1e9;
  if (!s.ok()) out.error = "setup: " + s.ToString();
  return out;
}

struct Window {
  /// Statements served, by slice of the window (all, and reads only).
  std::vector<LatencyHistogram> slice_all =
      std::vector<LatencyHistogram>(kSlices);
  std::vector<LatencyHistogram> slice_read =
      std::vector<LatencyHistogram>(kSlices);
  std::vector<LatencyHistogram> by_kind = std::vector<LatencyHistogram>(kKinds);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  LayerTotals layers;
  std::vector<Span> spans;

  void Merge(const Window& o) {
    for (size_t i = 0; i < kSlices; ++i) {
      slice_all[i].Merge(o.slice_all[i]);
      slice_read[i].Merge(o.slice_read[i]);
    }
    for (int k = 0; k < kKinds; ++k) by_kind[k].Merge(o.by_kind[k]);
    attempted += o.attempted;
    failed += o.failed;
    if (first_error.empty()) first_error = o.first_error;
    layers.Add(o.layers);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }
  uint64_t served() const {
    uint64_t n = 0;
    for (const LatencyHistogram& h : slice_all) n += h.count();
    return n;
  }
  std::vector<double> SliceRates(double seconds) const {
    std::vector<double> rates;
    for (const LatencyHistogram& h : slice_all) {
      rates.push_back(h.count() / (seconds / kSlices));
    }
    return rates;
  }
  static double SliceMedian(const std::vector<LatencyHistogram>& slices,
                            double q) {
    std::vector<double> values;
    for (const LatencyHistogram& h : slices) {
      if (h.count() > 0) values.push_back(h.PercentileUs(q));
    }
    return Median(values);
  }
};

/// Runs every session of `w` against `engine` for `seconds`. Traced runs
/// replay through TracedExecutor and time maintenance passes themselves.
Window RunWindow(Workload& w, const std::shared_ptr<Engine>& engine,
                 double seconds, bool traced) {
  const int n = w.sessions();
  std::vector<Window> per(n + 1);
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<int64_t> window_start{0};
  auto session_main = [&](int id) {
    Window& out = per[id];
    std::unique_ptr<Generator> gen = w.MakeGenerator(id);
    sql::Session session(engine);
    TracedExecutor tracer(engine, 2000);
    ready.fetch_add(1);
    while (ready.load() <= n) std::this_thread::yield();
    const int64_t start_ns = window_start.load();
    const int64_t slice_ns = static_cast<int64_t>(seconds * 1e9 / kSlices);
    while (!stop.load(std::memory_order_relaxed)) {
      const Stmt stmt = gen->Next();
      const int64_t t0 = NowNs();
      Result<ExecResult> r =
          traced ? tracer.Execute(stmt.sql) : session.Execute(stmt.sql);
      const int64_t t1 = NowNs();
      ++out.attempted;
      std::string error = r.ok() ? w.Check(stmt, r.value()) : r.status().ToString();
      if (error.empty()) {
        const size_t slice = (t1 - start_ns) / slice_ns;
        if (slice < kSlices) {
          out.slice_all[slice].Add(t1 - t0);
          if (IsRead(stmt.kind)) out.slice_read[slice].Add(t1 - t0);
          out.by_kind[static_cast<int>(stmt.kind)].Add(t1 - t0);
        }
      } else {
        ++out.failed;
        if (out.first_error.empty()) out.first_error = stmt.sql + ": " + error;
      }
    }
    out.layers = tracer.totals();
    out.spans = tracer.kept();
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) threads.emplace_back(session_main, i);
  // The traced run drives maintenance passes itself, at the service's
  // default cadence, so they show as spans.
  std::thread maintenance;
  if (traced && w.maintenance()) {
    maintenance = std::thread([&] {
      TracedExecutor tracer(engine, 100);
      const int64_t interval_ns =
          engine->maintenance().interval_ms() * 1000000;
      int64_t next = NowNs() + interval_ns;
      while (!stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (NowNs() < next) continue;
        tracer.RunMaintenancePass();
        next += interval_ns;
      }
      per[n].layers = tracer.totals();
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  window_start.store(NowNs());
  ready.fetch_add(1);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  if (maintenance.joinable()) maintenance.join();
  Window out;
  for (const Window& p : per) out.Merge(p);
  return out;
}

/// Replays the first `samples` statements of the stream, round robin over
/// the sessions, through Session::Execute on one engine and through the
/// traced path on an identically set-up engine. Both must return the same
/// rows, texps and messages. Also returns the ratio of the traced SELECTs'
/// summed top-level stage spans to their untraced latency (medians).
std::string DriftGuard(const Args& args, int samples, double* coverage) {
  Setup a = MakeSetup(args, false), b = MakeSetup(args, false);
  if (!a.error.empty()) return a.error;
  if (!b.error.empty()) return b.error;
  sql::Session session(a.engine);
  TracedExecutor tracer(b.engine, 0);
  std::vector<std::unique_ptr<Generator>> gens;
  for (int i = 0; i < a.workload->sessions(); ++i) {
    gens.push_back(a.workload->MakeGenerator(i));
  }
  std::vector<double> untraced, staged;
  for (int i = 0; i < samples; ++i) {
    const Stmt stmt = gens[i % gens.size()]->Next();
    Result<ExecResult> ra = Status::Internal("unset"), rb = ra;
    int64_t ta = 0;
    for (int side = 0; side < 2; ++side) {
      if ((side + i) % 2 == 0) {
        const int64_t t0 = NowNs();
        ra = session.Execute(stmt.sql);
        ta = NowNs() - t0;
      } else {
        rb = tracer.Execute(stmt.sql);
      }
    }
    if (!ra.ok() || !rb.ok()) {
      return stmt.sql + ": " + (ra.ok() ? rb : ra).status().ToString();
    }
    std::string error = a.workload->Check(stmt, ra.value());
    if (error.empty()) error = b.workload->Check(stmt, rb.value());
    if (error.empty() && (Canonical(ra.value()) != Canonical(rb.value()) ||
                          ra->message != rb->message ||
                          ra->served_at != rb->served_at)) {
      error = "traced path diverges from Session (" + ra->message + " / " +
              rb->message + ")";
    }
    if (!error.empty()) return stmt.sql + ": " + error;
    if (stmt.kind == Kind::kSelect || stmt.kind == Kind::kExecute ||
        stmt.kind == Kind::kCount) {
      untraced.push_back(static_cast<double>(ta));
      staged.push_back(static_cast<double>(tracer.last_stage_ns()));
    }
  }
  *coverage = Ratio(Median(staged), Median(untraced));
  return "";
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << std::fixed << std::setprecision(3) << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << LayerName(s.layer)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << s.start_ns / 1000.0 << ", \"dur\": "
        << (s.end_ns - s.start_ns) / 1000.0 << ", \"args\": {\"stmt\": "
        << s.stmt << ", \"parent\": "
        << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
        << "}}";
  }
  out << "\n]\n";
}

double Us(const LayerTotals& t, Layer l) {
  const int i = static_cast<int>(l);
  return Ratio(t.total_ns[i] / 1000.0, static_cast<double>(t.calls[i]));
}

/// Share of all statement time spent in the self time of layers whose name
/// starts with `module`.
double ModuleShare(const LayerTotals& t, const std::string& module) {
  double self = 0;
  for (int i = 1; i < kLayers; ++i) {
    const Layer l = static_cast<Layer>(i);
    if (l == Layer::kMaintenancePass) continue;
    if (std::string(LayerName(l)).rfind(module, 0) == 0) self += t.self_ns[i];
  }
  if (module == "plan") {
    for (int64_t op : t.op_self_ns) self += op;
  }
  return Ratio(self, t.total_ns[static_cast<int>(Layer::kStatement)]);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload scan_read|hot_cache|"
                 "ttl_churn --seed N --seconds S --trace 0|1 [--commit SHA] "
                 "[--spans-out FILE]\n");
    return 2;
  }
  Json metrics, record;
  std::string error;
  uint64_t attempted = 0, failed = 0;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  const int sessions = workload->sessions();

  auto add = [&](const char* name, double value, const char* unit) {
    metrics.Raw(name, Json().Num("value", value).Str("unit", unit).Done());
  };

  if (args.trace == 0) {
    // Set up several times (the median is setup_s); the last one runs.
    std::vector<double> setups;
    Setup run;
    for (int i = 0; i < kSetups && error.empty(); ++i) {
      run = Setup{};
      run = MakeSetup(args, true);
      setups.push_back(run.seconds);
      error = run.error;
    }
    Window w;
    Deltas d;
    double steal_s = 0;
    if (error.empty()) {
      d.before = RegistryValues();
      steal_s = StealSeconds();
      w = RunWindow(*run.workload, run.engine, args.seconds, false);
      steal_s = StealSeconds() - steal_s;
      d.after = RegistryValues();
      run.engine->maintenance().Stop();
      sql::Session check(run.engine);
      error = run.workload->FinalCheck(check);
      if (!error.empty()) error = "final check: " + error;
    }
    if (error.empty()) error = w.first_error;
    attempted = w.attempted;
    failed = w.failed;
    add("setup_s", Median(setups), "s");
    add("stmt_per_s", Median(w.SliceRates(args.seconds)), "1/s");
    add("stmt_p50_us", Window::SliceMedian(w.slice_all, 0.5), "us");
    add("stmt_p90_us", Window::SliceMedian(w.slice_all, 0.9), "us");
    add("read_p50_us", Window::SliceMedian(w.slice_read, 0.5), "us");
    add("read_p90_us", Window::SliceMedian(w.slice_read, 0.9), "us");
    add("peak_rss_mb", PeakRssMiB(), "MiB");
    // Per-kind latencies and registry deltas go into the run record: not
    // every kind occurs in every workload.
    Json kinds;
    for (int k = 0; k < kKinds; ++k) {
      const LatencyHistogram& h = w.by_kind[k];
      if (h.count() == 0) continue;
      kinds.Raw(KindName(static_cast<Kind>(k)),
                Json().Num("n", h.count()).Num("p50_us", h.PercentileUs(0.5))
                    .Num("p99_us", h.PercentileUs(0.99)).Done());
    }
    Json counters;
    for (const char* name : kRegistryCounters) counters.Num(name, d[name]);
    record.Raw("latency_by_kind", kinds.Done())
        .Raw("setup_runs_s", JsonArray(setups))
        .Raw("registry_deltas", counters.Done())
        .Num("failed_frac", Ratio(failed, attempted))
        .Num("host_steal_s", steal_s)
        .Raw("slice_stmt_per_s", JsonArray(w.SliceRates(args.seconds)));
  } else {
    const int samples = args.workload == "scan_read"   ? 150
                        : args.workload == "hot_cache" ? 3000
                                                       : 300;
    double coverage = 0;
    error = DriftGuard(args, samples, &coverage);
    if (error.empty() && args.workload != "ttl_churn" &&
        std::abs(coverage - 1) > 0.1) {
      error = "traced stage spans cover " + std::to_string(coverage) +
              " of the untraced SELECT latency (must be within 0.1 of 1)";
    }
    if (!error.empty()) error = "drift guard: " + error;
    // Untraced and traced windows of half the length each, on fresh
    // engines with the same stream.
    Window plain, traced;
    Deltas d;
    Setup run;
    if (error.empty()) {
      run = MakeSetup(args, true);
      error = run.error;
    }
    if (error.empty()) {
      plain = RunWindow(*run.workload, run.engine, args.seconds / 2, false);
      run = Setup{};
      run = MakeSetup(args, false);
      error = run.error;
    }
    if (error.empty()) {
      d.before = RegistryValues();
      traced = RunWindow(*run.workload, run.engine, args.seconds / 2, true);
      d.after = RegistryValues();
      sql::Session check(run.engine);
      error = run.workload->FinalCheck(check);
      if (!error.empty()) error = "final check: " + error;
    }
    if (error.empty()) error = plain.first_error;
    if (error.empty()) error = traced.first_error;
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    const LayerTotals& t = traced.layers;
    const double plain_tps = Ratio(plain.served(), args.seconds / 2);
    const double traced_tps = Ratio(traced.served(), args.seconds / 2);
    const double rc_hits = d["expdb_result_cache_hits_total"];
    const double rc_lookups = rc_hits + d["expdb_result_cache_misses_total"];
    const double pruned = d["expdb_segment_pruned_total"];
    const double advances = t.calls[static_cast<int>(Layer::kExpirationAdvance)];
    const double view_reads = t.calls[static_cast<int>(Layer::kViewRead)];
    const double applies = d["expdb_view_delta_applies_total"];
    const double per_exec = static_cast<double>(t.executes);
    auto op_us = [&](OpKind k) {
      return Ratio(t.op_self_ns[static_cast<int>(k)] / 1000.0, per_exec);
    };
    add("sql.parse_us", Us(t, Layer::kParse), "us");
    add("sql.normalize_us", Us(t, Layer::kNormalize), "us");
    add("sql.bind_us", Us(t, Layer::kBind), "us");
    add("plan.stmt_cache_lookup_us", Us(t, Layer::kStmtCacheLookup), "us");
    add("plan.stmt_cache_hit_ratio",
        Ratio(t.stmt_cache_hits, t.stmt_cache_lookups), "ratio");
    add("plan.plan_us", Us(t, Layer::kPlan), "us");
    add("plan.instantiate_us", Us(t, Layer::kInstantiate), "us");
    add("plan.result_cache_lookup_us", Us(t, Layer::kResultCacheLookup), "us");
    add("plan.result_cache_hit_ratio", Ratio(rc_hits, rc_lookups), "ratio");
    add("plan.result_cache_patch_ratio",
        Ratio(d["expdb_result_cache_patches_total"], rc_hits), "ratio");
    add("plan.result_cache_evictions", d["expdb_result_cache_evictions_total"],
        "count");
    add("plan.result_cache_insert_us", Us(t, Layer::kResultCacheInsert), "us");
    add("plan.execute_us", Us(t, Layer::kExecute), "us");
    add("plan.op.scan_us", op_us(OpKind::kScan), "us");
    add("plan.op.filter_us", op_us(OpKind::kFilter), "us");
    add("plan.op.project_us", op_us(OpKind::kProject), "us");
    add("plan.op.join_us", op_us(OpKind::kJoin), "us");
    add("plan.op.aggregate_us", op_us(OpKind::kAggregate), "us");
    add("plan.rows_examined_per_row_out",
        Ratio(t.scan_rows, t.root_rows), "ratio");
    add("relational.copy_out_us", Us(t, Layer::kCopyOut), "us");
    add("relational.segments_pruned_ratio",
        Ratio(pruned, pruned + d["expdb_segment_checked_total"]), "ratio");
    add("relational.segments_dropped", d["expdb_segment_dropped_total"],
        "count");
    add("engine.snapshot_us", Us(t, Layer::kSnapshot), "us");
    add("engine.write_lock_us", Us(t, Layer::kWriteLock), "us");
    add("engine.exclusive_lock_us", Us(t, Layer::kExclusiveLock), "us");
    add("engine.write_waits_per_1k",
        1000 * Ratio(d["expdb_engine_write_waits_total"],
                     t.calls[static_cast<int>(Layer::kWriteLock)]),
        "count");
    add("engine.maintenance_pass_us", Us(t, Layer::kMaintenancePass), "us");
    add("engine.maintenance_removed",
        d["expdb_engine_maintenance_removed_total"], "count");
    add("expiration.insert_us", Us(t, Layer::kExpirationInsert), "us");
    add("expiration.advance_us", Us(t, Layer::kExpirationAdvance), "us");
    add("expiration.removed_per_advance",
        Ratio(d["expdb_expiration_removed_total"], advances), "count");
    add("expiration.stale_pop_ratio",
        Ratio(d["expdb_expiration_stale_entries_total"],
              d["expdb_expiration_index_pops_total"]),
        "ratio");
    add("expiration.queue_size", d.End("expdb_expiration_queue_size"), "count");
    add("view.read_us", Us(t, Layer::kViewRead), "us");
    add("view.advance_all_us", Us(t, Layer::kViewAdvanceAll), "us");
    add("view.notify_us", Us(t, Layer::kViewNotify), "us");
    add("view.delta_apply_ratio",
        Ratio(applies, applies + d["expdb_view_delta_fallbacks_total"]),
        "ratio");
    add("view.recomputations_per_read",
        Ratio(d["expdb_view_recomputations_total"], view_reads), "ratio");
    add("select.execute_share", Ratio(t.select_execute_ns, t.select_ns),
        "ratio");
    add("stmt.plan_share", ModuleShare(t, "plan"), "ratio");
    add("stmt.engine_share", ModuleShare(t, "engine"), "ratio");
    add("stmt.expiration_share", ModuleShare(t, "expiration"), "ratio");
    add("stmt.view_share", ModuleShare(t, "view"), "ratio");
    add("bench.stage_coverage_ratio", coverage, "ratio");
    add("bench.trace_overhead_frac", 1 - Ratio(traced_tps, plain_tps), "ratio");

    Json layers;
    for (int i = 0; i < kLayers; ++i) {
      if (t.calls[i] == 0) continue;
      layers.Raw(LayerName(static_cast<Layer>(i)),
                 Json().Num("calls", t.calls[i]).Num("total_us", t.total_ns[i] / 1000.0)
                     .Num("self_us", t.self_ns[i] / 1000.0).Done());
    }
    Json counters;
    for (const char* name : kRegistryCounters) counters.Num(name, d[name]);
    record.Raw("layers", layers.Done())
        .Raw("registry_deltas", counters.Done())
        .Num("untraced_stmt_per_s", plain_tps)
        .Num("traced_stmt_per_s", traced_tps)
        .Num("traced_selects", t.selects);
    if (!args.spans_out.empty()) WriteSpans(args.spans_out, traced.spans);
  }

  const bool correct = error.empty() && failed == 0;
  if (!error.empty()) std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  record.Str("workload", args.workload)
      .Num("seed", static_cast<double>(args.seed))
      .Num("trace", args.trace)
      .Num("sessions", sessions)
      .Num("seconds", args.seconds)
      .Num("nproc", std::thread::hardware_concurrency())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Raw("release_build", std::string(PERFBENCH_BUILD_TYPE) == "Release"
                                ? "true" : "false")
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("commit", args.commit)
      .Str("error", error);
  std::printf("%s\n", Json().Raw("record", record.Done()).Done().c_str());
  std::printf("%s\n", Json()
                          .Raw("correct", correct ? "true" : "false")
                          .Num("attempted", std::max<uint64_t>(attempted, 1))
                          .Num("failed", failed)
                          .Raw("metrics", metrics.Done())
                          .Done()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
