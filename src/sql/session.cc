#include "sql/session.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include <fstream>

#include "common/str_util.h"
#include "core/rewrite.h"
#include "engine/maintenance.h"
#include "engine/telemetry.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "plan/delta.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "relational/printer.h"
#include "sql/binder.h"
#include "sql/normalize.h"
#include "sql/parser.h"

namespace expdb {
namespace sql {

namespace {

// Attribute names in a relation must be unique; disambiguate SQL output
// names (e.g. two count(*) columns) with ".2", ".3", ...
std::vector<std::string> UniquifyNames(std::vector<std::string> names) {
  std::unordered_set<std::string> seen;
  for (std::string& name : names) {
    std::string candidate = name;
    int suffix = 2;
    while (!seen.insert(candidate).second) {
      candidate = name + "." + std::to_string(suffix++);
    }
    name = candidate;
  }
  return names;
}

Result<MaterializedView::Options> ViewOptionsFrom(
    const std::map<std::string, std::string>& options,
    const EvalOptions& base_eval) {
  MaterializedView::Options out;
  out.eval = base_eval;
  for (const auto& [key, value] : options) {
    if (key == "mode") {
      if (value == "eager") {
        out.mode = RefreshMode::kEagerRecompute;
      } else if (value == "lazy") {
        out.mode = RefreshMode::kLazyRecompute;
      } else if (value == "schrodinger") {
        out.mode = RefreshMode::kSchrodinger;
      } else if (value == "patch") {
        out.mode = RefreshMode::kPatchDifference;
      } else {
        return Status::InvalidArgument(
            "unknown view mode '" + value +
            "' (expected eager, lazy, schrodinger, patch)");
      }
    } else if (key == "move") {
      if (value == "recompute") {
        out.move_policy = MovePolicy::kRecompute;
      } else if (value == "backward") {
        out.move_policy = MovePolicy::kMoveBackward;
      } else if (value == "forward") {
        out.move_policy = MovePolicy::kMoveForward;
      } else {
        return Status::InvalidArgument(
            "unknown move policy '" + value +
            "' (expected recompute, backward, forward)");
      }
    } else if (key == "agg") {
      if (value == "conservative") {
        out.eval.aggregate_mode = AggregateExpirationMode::kConservative;
      } else if (value == "contributing") {
        out.eval.aggregate_mode = AggregateExpirationMode::kContributingSet;
      } else if (value == "exact") {
        out.eval.aggregate_mode = AggregateExpirationMode::kExact;
      } else {
        return Status::InvalidArgument(
            "unknown aggregate mode '" + value +
            "' (expected conservative, contributing, exact)");
      }
    } else if (key == "tolerance") {
      auto eps = ParseDouble(value);
      if (!eps.has_value() || *eps < 0) {
        return Status::InvalidArgument(
            "tolerance must be a non-negative number, got '" + value + "'");
      }
      out.eval.aggregate_tolerance = *eps;
    } else {
      return Status::InvalidArgument("unknown view option '" + key + "'");
    }
  }
  return out;
}

}  // namespace

std::string FormatExecResult(const ExecResult& result) {
  if (!result.relation.has_value()) return result.message + "\n";
  PrintOptions opts;
  opts.at = result.served_at;
  opts.filter_expired = true;
  std::string out = PrintRelation(*result.relation, opts);
  const size_t rows = result.relation->CountUnexpiredAt(result.served_at);
  out += "(" + std::to_string(rows) + (rows == 1 ? " row" : " rows") +
         " at time " + result.served_at.ToString() + ")\n";
  return out;
}

Session::Session(Options options)
    : Session(std::make_shared<engine::Engine>(
                  engine::EngineOptions{options.expiration}),
              options) {}

Session::Session(std::shared_ptr<engine::Engine> engine)
    : Session(std::move(engine), Options{}) {}

Session::Session(std::shared_ptr<engine::Engine> engine, Options options)
    : engine_(std::move(engine)),
      eval_options_(options.eval) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  statements_metric_ = r.GetCounter("expdb_sql_statements_total");
  errors_metric_ = r.GetCounter("expdb_sql_errors_total");
  slow_queries_metric_ = r.GetCounter("expdb_sql_slow_queries_total");
  statement_latency_ = r.GetHistogram("expdb_sql_statement_latency_ns");
}

Result<ExecResult> Session::ExecuteCounted(const Statement& stmt) {
  // With span recording off, a statement still gets a trace id of its own
  // while the event log is on, so the events it emits can be told apart.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  std::optional<obs::TraceContextScope> event_trace;
  if (!recorder.enabled() && obs::EventLog::Global().enabled()) {
    event_trace.emplace(obs::TraceContext{recorder.NextId(), 0});
  }
  obs::ScopedSpan span("sql.statement", statement_latency_);
  statements_metric_->Increment();
  Result<ExecResult> r = ExecuteStatement(stmt);
  if (!r.ok()) errors_metric_->Increment();
  if (slow_query_threshold_ns_ >= 0) {
    const int64_t elapsed = span.ElapsedNs();
    if (elapsed >= slow_query_threshold_ns_) {
      slow_queries_metric_->Increment();
      obs::EventLog& log = obs::EventLog::Global();
      if (log.enabled()) {
        log.Emit(obs::LogSeverity::kWarn, "sql", "slow_query",
                 {{"elapsed_ns", std::to_string(elapsed)},
                  {"threshold_ns", std::to_string(slow_query_threshold_ns_)},
                  {"status", r.ok() ? "ok" : "error"}});
      }
    }
  }
  return r;
}

Result<ExecResult> Session::Execute(const std::string& statement) {
  auto parsed = ParseStatement(statement);
  if (!parsed.ok()) {
    statements_metric_->Increment();
    errors_metric_->Increment();
    return parsed.status();
  }
  return ExecuteCounted(parsed.value());
}

Result<std::vector<ExecResult>> Session::ExecuteScript(
    const std::string& script) {
  auto parsed = ParseScript(script);
  if (!parsed.ok()) {
    statements_metric_->Increment();
    errors_metric_->Increment();
    return parsed.status();
  }
  std::vector<ExecResult> out;
  out.reserve(parsed.value().size());
  for (const Statement& stmt : parsed.value()) {
    EXPDB_ASSIGN_OR_RETURN(ExecResult r, ExecuteCounted(stmt));
    out.push_back(std::move(r));
  }
  return out;
}

Result<ExecResult> Session::ExecuteStatement(const Statement& stmt) {
  return std::visit(
      [this](const auto& s) -> Result<ExecResult> {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, SelectStatement>) {
          return ExecuteSelect(s);
        } else if constexpr (std::is_same_v<T, CreateTableStatement>) {
          return ExecuteCreateTable(s);
        } else if constexpr (std::is_same_v<T, InsertStatement>) {
          return ExecuteInsert(s);
        } else if constexpr (std::is_same_v<T, CreateViewStatement>) {
          return ExecuteCreateView(s);
        } else if constexpr (std::is_same_v<T, DropStatement>) {
          return ExecuteDrop(s);
        } else if constexpr (std::is_same_v<T, AdvanceStatement>) {
          return ExecuteAdvance(s);
        } else if constexpr (std::is_same_v<T, ShowStatement>) {
          return ExecuteShow(s);
        } else if constexpr (std::is_same_v<T, DeleteStatement>) {
          return ExecuteDelete(s);
        } else if constexpr (std::is_same_v<T, StatsStatement>) {
          return ExecuteStats(s);
        } else if constexpr (std::is_same_v<T, SetStatement>) {
          return ExecuteSet(s);
        } else if constexpr (std::is_same_v<T, TraceStatement>) {
          return ExecuteTrace(s);
        } else if constexpr (std::is_same_v<T, PrepareStatement>) {
          return ExecutePrepare(s);
        } else if constexpr (std::is_same_v<T, ExecutePreparedStatement>) {
          return ExecuteRunPrepared(s);
        } else if constexpr (std::is_same_v<T, CacheStatement>) {
          return ExecuteCache(s);
        } else if constexpr (std::is_same_v<T, MaintenanceStatement>) {
          return ExecuteMaintenance(s);
        } else if constexpr (std::is_same_v<T, MonitorStatement>) {
          return ExecuteMonitor(s);
        } else {
          return ExecuteExplain(s);
        }
      },
      stmt);
}

namespace {

// Collects every FROM table name across a set-operation tree.
void CollectFromNames(const SelectStatement& stmt,
                      std::set<std::string>* out) {
  for (const TableRef& ref : stmt.from) out->insert(ref.name);
  if (stmt.set_rhs != nullptr) CollectFromNames(*stmt.set_rhs, out);
}

}  // namespace

Result<ExecResult> Session::ExecuteSelect(const SelectStatement& stmt) {
  // Open a read snapshot over the FROM relations: their tables (and the
  // tables the views among them read) shared, the views' own locks held.
  // Concurrent writers to them block; everything else proceeds.
  std::set<std::string> from_names;
  CollectFromNames(stmt, &from_names);
  engine::Engine::Snapshot snap = engine_->OpenSnapshot(from_names);
  const Timestamp now = Now();

  // The canonical view read, SELECT * FROM v, keeps ViewManager::Read's
  // semantics: a Schrödinger view may serve a nearby valid time.
  if (!snap.views().empty() && stmt.from.size() == 1 &&
      stmt.items.size() == 1 &&
      stmt.items[0].kind == SelectItem::Kind::kStar &&
      stmt.where == nullptr && stmt.group_by.empty() &&
      stmt.set_op == SelectStatement::SetOp::kNone) {
    ExecResult out;
    out.served_at = now;
    EXPDB_ASSIGN_OR_RETURN(
        out.relation,
        engine_->views().Read(stmt.from[0].name, now, &out.served_at));
    out.message = "view " + stmt.from[0].name;
    return out;
  }

  // Cached pipeline: bring the views read to a state exact at `now`, then
  // normalize the literals away, reuse (or plan once) the skeleton, and
  // try the result cache. A view is one more relation to it.
  EXPDB_RETURN_NOT_OK(engine_->views().Refresh(snap.views(), now));
  EXPDB_ASSIGN_OR_RETURN(NormalizedSelect norm, NormalizeSelect(stmt));
  std::optional<plan::PreparedPlan> skeleton =
      engine_->stmt_cache().Lookup(norm.fingerprint);
  if (!skeleton.has_value()) {
    plan::PreparedPlan fresh;
    EXPDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(norm.select, db()));
    EXPDB_ASSIGN_OR_RETURN(
        fresh.plan,
        plan::Planner::Plan(bound.expr, db(), MakePlannerOptions()));
    fresh.param_count = norm.args.size();
    fresh.fingerprint = norm.fingerprint;
    fresh.column_names = std::move(bound.column_names);
    engine_->stmt_cache().Insert(norm.fingerprint, fresh);
    skeleton = std::move(fresh);
  }
  return ExecutePlannedSelect(*skeleton, norm.args, now);
}

plan::PlannerOptions Session::MakePlannerOptions() const {
  // Expiration-aware optimizations on, Sec. 3.1 rewrites off — the facade
  // default. EXPLAIN, SELECT, and PREPARE all plan with these, so the
  // rendered EXPLAIN plan is the one a SELECT runs.
  plan::PlannerOptions popts;
  popts.eval = eval_options_;
  return popts;
}

Result<ExecResult> Session::ExecutePlannedSelect(
    const plan::PreparedPlan& prepared, const std::vector<Value>& args,
    Timestamp now) {
  plan::ResultCache& result_cache = engine_->result_cache();
  const std::string key = plan::ResultCacheKey(prepared.fingerprint, args);
  if (result_cache.enabled()) {
    std::optional<MaterializedResult> cached =
        result_cache.Lookup(key, db(), now);
    if (cached.has_value()) {
      // Theorems 1–2: letting the materialization expire in place
      // reproduces recomputation at every instant before its texp, so a
      // hit is served with zero operator executions. Lookup already
      // copied only the rows live at `now`.
      ExecResult out;
      out.relation = std::move(cached->relation);
      out.served_at = now;
      out.message = "ok (cached)";
      return out;
    }
  }
  EXPDB_ASSIGN_OR_RETURN(plan::PhysicalPlanPtr bound,
                         plan::InstantiatePlan(prepared.plan, args));
  // Capturing keeps the outputs that seed delta maintenance; pay for it
  // only when the filled entry could actually be delta-patched later.
  plan::NodeCapture capture;
  plan::NodeCapture* capture_ptr =
      result_cache.enabled() && plan::PlanSupportsDelta(*bound, eval_options_)
          ? &capture
          : nullptr;
  EXPDB_ASSIGN_OR_RETURN(MaterializedResult result,
                         plan::ExecutePlan(*bound, db(), now, eval_options_,
                                           nullptr, capture_ptr));
  EXPDB_RETURN_NOT_OK(result.relation.RenameAttributes(
      UniquifyNames(prepared.column_names)));
  ExecResult out;
  out.relation = result.relation;
  out.served_at = now;
  out.message = "ok";
  if (result_cache.enabled()) {
    result_cache.Insert(key, std::move(bound), capture_ptr,
                        std::move(result), db(), now);
  }
  return out;
}

Result<ExecResult> Session::ExecutePrepare(const PrepareStatement& stmt) {
  // Binding and planning read schemas and statistics: snapshot the FROM
  // relations for a consistent read.
  std::set<std::string> from_names;
  CollectFromNames(stmt.select, &from_names);
  engine::Engine::Snapshot snap = engine_->OpenSnapshot(from_names);
  // EXECUTE snapshots the plan's bases and refreshes no view, so views
  // cannot appear in a prepared FROM clause.
  if (!snap.views().empty()) {
    return Status::InvalidArgument("PREPARE cannot reference view '" +
                                   snap.views().front() +
                                   "'; prepared plans bind to base "
                                   "tables only");
  }
  EXPDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(stmt.select, db()));
  plan::PreparedPlan prepared;
  EXPDB_ASSIGN_OR_RETURN(
      prepared.plan,
      plan::Planner::Plan(bound.expr, db(), MakePlannerOptions()));
  prepared.param_count = plan::ExpressionParameterCount(bound.expr);
  prepared.fingerprint = FingerprintSelect(stmt.select);
  prepared.column_names = std::move(bound.column_names);
  const size_t params = prepared.param_count;
  const bool replaced = engine_->PutPrepared(stmt.name, std::move(prepared));
  return ExecResult{"statement " + stmt.name +
                        (replaced ? " re-prepared (" : " prepared (") +
                        std::to_string(params) +
                        (params == 1 ? " parameter)" : " parameters)"),
                    std::nullopt, Now()};
}

Result<ExecResult> Session::ExecuteRunPrepared(
    const ExecutePreparedStatement& stmt) {
  std::optional<plan::PreparedPlan> prepared = engine_->GetPrepared(stmt.name);
  if (!prepared.has_value()) {
    return Status::NotFound("no prepared statement named '" + stmt.name +
                            "'");
  }
  if (stmt.args.size() != prepared->param_count) {
    return Status::InvalidArgument(
        "EXECUTE " + stmt.name + " expects " +
        std::to_string(prepared->param_count) +
        (prepared->param_count == 1 ? " argument, got "
                                    : " arguments, got ") +
        std::to_string(stmt.args.size()));
  }
  engine::Engine::Snapshot snap =
      engine_->OpenSnapshot(prepared->plan->planned_expr()->BaseRelationNames());
  return ExecutePlannedSelect(*prepared, stmt.args, Now());
}

namespace {

/// " (absent 3, lapsed 1)": the non-zero miss reasons, or "" when none.
std::string MissReasonsText(const plan::ResultCache::Stats& rs) {
  std::string text;
  for (size_t r = 0; r < plan::kMissReasons; ++r) {
    if (rs.misses_by_reason[r] == 0) continue;
    text += text.empty() ? " (" : ", ";
    text += plan::MissReasonName(static_cast<plan::MissReason>(r));
    text += " " + std::to_string(rs.misses_by_reason[r]);
  }
  return text.empty() ? text : text + ")";
}

}  // namespace

Result<ExecResult> Session::ExecuteCache(const CacheStatement& stmt) {
  plan::StatementCache& stmt_cache = engine_->stmt_cache();
  if (stmt.what == CacheStatement::What::kClear) {
    stmt_cache.Clear();
    engine_->result_cache().Clear();
    return ExecResult{"caches cleared (prepared statements kept)",
                      std::nullopt, Now()};
  }
  const plan::ResultCache::Stats rs = engine_->result_cache().stats();
  std::string msg =
      "statement cache: " + std::to_string(stmt_cache.size()) +
      " plans, " + std::to_string(stmt_cache.hits()) + " hits, " +
      std::to_string(stmt_cache.misses()) + " misses";
  msg += "\nresult cache: " + std::to_string(rs.entries) + " entries, " +
         std::to_string(rs.bytes) + " / " + std::to_string(rs.max_bytes) +
         " bytes, " + std::to_string(rs.hits) + " hits (" +
         std::to_string(rs.patches) + " patched), " +
         std::to_string(rs.misses) + " misses" + MissReasonsText(rs) + ", " +
         std::to_string(rs.evictions) + " evictions, " +
         std::to_string(rs.admitted) + " admitted, " +
         std::to_string(rs.rejected) + " rejected (first sighting)";
  msg += "\nprepared statements: " + std::to_string(engine_->prepared_count());
  return ExecResult{std::move(msg), std::nullopt, Now()};
}

Result<ExecResult> Session::ExecuteMaintenance(
    const MaintenanceStatement& stmt) {
  engine::MaintenanceService& service = engine_->maintenance();
  switch (stmt.what) {
    case MaintenanceStatement::What::kStatus:
      return ExecResult{service.StatusString(), std::nullopt, Now()};
    case MaintenanceStatement::What::kPause:
      service.Pause();
      return ExecResult{"maintenance paused", std::nullopt, Now()};
    case MaintenanceStatement::What::kResume:
      service.Resume();
      return ExecResult{"maintenance resumed (interval " +
                            std::to_string(service.interval_ms()) + "ms)",
                        std::nullopt, Now()};
    case MaintenanceStatement::What::kRun: {
      const size_t removed = service.RunOnce();
      return ExecResult{"maintenance pass removed " +
                            std::to_string(removed) +
                            (removed == 1 ? " tuple" : " tuples"),
                        std::nullopt, Now()};
    }
  }
  return Status::Internal("unknown MAINTENANCE statement");
}

namespace {

/// Renders one telemetry ring as a relation (t_ns INT, value, delta,
/// rate, p50, p95, p99 DOUBLE, count INT), oldest point first. The
/// non-applicable columns (rate for gauges, percentiles for counters)
/// hold zero rather than varying the schema per metric kind.
Relation TimeSeriesToRelation(const obs::TimeSeries& series) {
  Schema schema = Schema::Make({Attribute{"t_ns", ValueType::kInt64},
                                Attribute{"value", ValueType::kDouble},
                                Attribute{"delta", ValueType::kDouble},
                                Attribute{"rate", ValueType::kDouble},
                                Attribute{"p50", ValueType::kDouble},
                                Attribute{"p95", ValueType::kDouble},
                                Attribute{"p99", ValueType::kDouble},
                                Attribute{"count", ValueType::kInt64}})
                      .value();
  Relation rel(std::move(schema));
  for (const obs::TimeSeriesPoint& p : series.points) {
    rel.InsertUnchecked(
        Tuple({Value(p.t_ns), Value(p.value), Value(p.delta), Value(p.rate),
               Value(p.p50), Value(p.p95), Value(p.p99),
               Value(static_cast<int64_t>(p.count))}),
        Timestamp::Infinity());
  }
  return rel;
}

}  // namespace

Result<ExecResult> Session::ExecuteMonitor(const MonitorStatement& stmt) {
  engine::TelemetryService& telemetry = engine_->telemetry();
  switch (stmt.what) {
    case MonitorStatement::What::kStatus:
      return ExecResult{telemetry.StatusString(), std::nullopt, Now()};
    case MonitorStatement::What::kThresholds:
      return ExecResult{telemetry.ThresholdsString(), std::nullopt, Now()};
    case MonitorStatement::What::kHistory: {
      const std::optional<obs::TimeSeries> series =
          telemetry.series().Series(stmt.metric);
      if (!series.has_value()) {
        return Status::NotFound(
            "no telemetry history for metric '" + stmt.metric +
            "' (never sampled; is the telemetry service running? try "
            "SET telemetry_interval_ms)");
      }
      std::string kind = "counter";
      if (series->kind == obs::MetricSnapshot::Kind::kGauge) kind = "gauge";
      if (series->kind == obs::MetricSnapshot::Kind::kHistogram) {
        kind = "histogram";
      }
      ExecResult out;
      out.message = stmt.metric + " (" + kind + ", " +
                    std::to_string(series->points.size()) +
                    " points retained)";
      out.relation = TimeSeriesToRelation(*series);
      out.served_at = Now();
      return out;
    }
  }
  return Status::Internal("unknown MONITOR statement");
}

Result<ExecResult> Session::ExecuteExplain(const ExplainStatement& stmt) {
  // The same snapshot and view refresh as SELECT, so the plan rendered
  // (and, for ANALYZE, run) reads what a SELECT would.
  std::set<std::string> from_names;
  CollectFromNames(stmt.select, &from_names);
  engine::Engine::Snapshot snap = engine_->OpenSnapshot(from_names);
  const Timestamp now = Now();
  EXPDB_RETURN_NOT_OK(engine_->views().Refresh(snap.views(), now));
  EXPDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(stmt.select, db()));
  EXPDB_ASSIGN_OR_RETURN(
      plan::PhysicalPlanPtr plan,
      plan::Planner::Plan(bound.expr, db(), MakePlannerOptions()));
  ExecResult out;
  out.served_at = now;
  if (stmt.what == ExplainStatement::What::kPlan) {
    out.message = plan->ToString();
    return out;
  }
  plan::PlanProfile profile;
  EXPDB_RETURN_NOT_OK(
      plan::ExecutePlan(*plan, db(), now, eval_options_, &profile)
          .status());
  out.message = plan->ToString(&profile);
  // When tracing is on, the operator spans the execution just recorded
  // all carry this statement's trace id and a PlanNode-id tag: aggregate
  // them per node so ANALYZE shows where the wall time went and how many
  // worker threads each operator fanned out to.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const uint64_t trace_id = obs::CurrentTraceContext().trace_id;
  if (recorder.enabled() && trace_id != 0) {
    std::map<uint64_t, std::pair<size_t, int64_t>> by_node;  // spans, ns
    std::map<uint64_t, std::set<uint32_t>> node_tids;
    for (const obs::SpanRecord& s : recorder.Snapshot()) {
      if (s.trace_id != trace_id || s.tag == 0) continue;
      auto& agg = by_node[s.tag];
      ++agg.first;
      agg.second += s.duration_ns;
      node_tids[s.tag].insert(s.tid);
    }
    if (!by_node.empty()) {
      out.message += "\ntraced operator spans (trace #" +
                     std::to_string(trace_id) + "):";
      for (const auto& [tag, agg] : by_node) {
        const size_t threads = node_tids[tag].size();
        out.message += "\n  node #" + std::to_string(tag) + ": " +
                       std::to_string(agg.first) +
                       (agg.first == 1 ? " span, " : " spans, ") +
                       std::to_string(agg.second) + "ns on " +
                       std::to_string(threads) +
                       (threads == 1 ? " thread" : " threads");
      }
    }
  }
  return out;
}

Result<ExecResult> Session::ExecuteCreateTable(
    const CreateTableStatement& stmt) {
  EXPDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(stmt.columns));
  engine::Engine::ExclusiveGuard lock = engine_->LockExclusive();
  EXPDB_ASSIGN_OR_RETURN(
      Relation * rel,
      engine_->expiration().CreateRelation(stmt.name, std::move(schema)));
  // Pre-enable delta tracking: view maintenance and the result cache both
  // need cursors over this relation, and enabling at CREATE time keeps
  // cursor history anchored at the table's birth.
  rel->EnableDeltaTracking();
  // A plan cached before this CREATE bound a different (since-dropped)
  // schema under the same name.
  engine_->InvalidateCachesFor(stmt.name);
  return ExecResult{"table " + stmt.name + " created", std::nullopt, Now()};
}

Result<ExecResult> Session::ExecuteInsert(const InsertStatement& stmt) {
  // Writer protocol: engine shared + the target relation exclusive.
  // Readers of other relations and writers to other relations proceed
  // concurrently.
  engine::Engine::WriteGuard guard = engine_->LockWrite(stmt.table);
  const Timestamp now = Now();
  Timestamp texp = Timestamp::Infinity();
  if (stmt.expire_at.has_value()) {
    texp = *stmt.expire_at;
  } else if (stmt.ttl.has_value()) {
    texp = now + *stmt.ttl;
  }
  // One change for the whole statement: every row is checked before any
  // is inserted, and a tracked table records one delta batch.
  std::vector<Tuple> tuples;
  tuples.reserve(stmt.rows.size());
  for (const std::vector<Value>& row : stmt.rows) {
    Tuple tuple(row);
    EXPDB_RETURN_NOT_OK(
        engine_->constraints().CheckInsert(stmt.table, tuple));
    tuples.push_back(std::move(tuple));
  }
  const size_t inserted = tuples.size();
  EXPDB_RETURN_NOT_OK(
      engine_->expiration().InsertAll(stmt.table, std::move(tuples), texp));
  // Explicit inserts break views' expiration-only maintenance contract;
  // mark dependents stale (they rebuild at their next read). Thread-safe
  // under the engine's shared lock.
  engine_->views().NotifyBaseChanged(stmt.table);
  std::string lifetime =
      texp.IsInfinite() ? std::string("no expiration")
                        : ("expire at " + texp.ToString());
  return ExecResult{std::to_string(inserted) +
                        (inserted == 1 ? " row" : " rows") +
                        " inserted into " + stmt.table + " (" + lifetime +
                        ")",
                    std::nullopt, now};
}

Result<ExecResult> Session::ExecuteCreateView(
    const CreateViewStatement& stmt) {
  engine::Engine::ExclusiveGuard lock = engine_->LockExclusive();
  EXPDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(stmt.select, db()));
  // Sec. 3.1: push selections below non-monotonic operators so the
  // materialization stays independently maintainable longer.
  EXPDB_ASSIGN_OR_RETURN(bound.expr, RewriteForIndependence(bound.expr, db()));
  EXPDB_ASSIGN_OR_RETURN(MaterializedView::Options options,
                         ViewOptionsFrom(stmt.options, eval_options_));
  EXPDB_ASSIGN_OR_RETURN(
      MaterializedView * view,
      engine_->views().CreateView(stmt.name, bound.expr, options, Now(),
                                  UniquifyNames(bound.column_names)));
  // A plan cached before this CREATE bound a different (since-dropped)
  // relation under the same name.
  engine_->InvalidateCachesFor(stmt.name);
  std::string monotonic =
      bound.expr->IsMonotonic()
          ? "monotonic: maintenance-free"
          : ("non-monotonic: texp = " + view->texp().ToString());
  return ExecResult{"view " + stmt.name + " created (" +
                        std::string(RefreshModeToString(options.mode)) +
                        ", " + monotonic + ")",
                    std::nullopt, Now()};
}

Result<ExecResult> Session::ExecuteDrop(const DropStatement& stmt) {
  engine::Engine::ExclusiveGuard lock = engine_->LockExclusive();
  ViewManager& views = engine_->views();
  if (stmt.is_view) {
    EXPDB_RETURN_NOT_OK(views.DropView(stmt.name));
    engine_->InvalidateCachesFor(stmt.name);
    return ExecResult{"view " + stmt.name + " dropped", std::nullopt, Now()};
  }
  // A table with dependent views cannot be dropped out from under them.
  const std::vector<std::string> dependents = views.DependentViews(stmt.name);
  if (!dependents.empty()) {
    return Status::InvalidArgument("table " + stmt.name +
                                   " is used by view " + dependents.front() +
                                   "; drop the view first");
  }
  EXPDB_RETURN_NOT_OK(db().DropRelation(stmt.name));
  engine_->InvalidateCachesFor(stmt.name);
  return ExecResult{"table " + stmt.name + " dropped", std::nullopt, Now()};
}

Result<ExecResult> Session::ExecuteAdvance(const AdvanceStatement& stmt) {
  // ADVANCE TIME mutates arbitrary relations (eager drains, lazy
  // compaction) and refreshes views: total isolation.
  engine::Engine::ExclusiveGuard lock = engine_->LockExclusive();
  ExpirationManager& expiration = engine_->expiration();
  if (stmt.absolute) {
    EXPDB_RETURN_NOT_OK(expiration.AdvanceTo(Timestamp(stmt.amount)));
  } else {
    EXPDB_RETURN_NOT_OK(expiration.Advance(stmt.amount));
  }
  EXPDB_RETURN_NOT_OK(engine_->views().AdvanceAllTo(Now()));
  return ExecResult{"time is " + Now().ToString(), std::nullopt, Now()};
}

Result<ExecResult> Session::ExecuteShow(const ShowStatement& stmt) {
  switch (stmt.what) {
    case ShowStatement::What::kTables: {
      // Catalog-wide consistent read: snapshot every relation.
      engine::Engine::Snapshot snap = engine_->OpenSnapshotAll();
      std::string msg = "tables:";
      for (const std::string& name : db().RelationNames()) {
        const Relation* rel = db().GetRelation(name).value();
        msg += "\n  " + name + " " + rel->schema().ToString() + " [" +
               std::to_string(rel->CountUnexpiredAt(Now())) + " live]";
      }
      return ExecResult{std::move(msg), std::nullopt, Now()};
    }
    case ShowStatement::What::kViews: {
      // View metadata only (no base-table access): the engine's shared
      // lock keeps DDL and maintenance out while the list renders, and
      // each view's lock keeps a refresh out while its texp is read.
      engine::Engine::Snapshot snap = engine_->OpenSnapshot({});
      ViewManager& views = engine_->views();
      std::string msg = "views:";
      for (const std::string& name : views.ViewNames()) {
        MaterializedView* v = views.GetView(name).value();
        std::lock_guard<std::mutex> lock(db().FindView(name)->lock);
        msg += "\n  " + name + " [" +
               std::string(RefreshModeToString(v->mode())) +
               ", texp = " + v->texp().ToString() + "] " +
               v->expression()->ToString();
      }
      return ExecResult{std::move(msg), std::nullopt, Now()};
    }
    case ShowStatement::What::kTime:
      return ExecResult{"time is " + Now().ToString(), std::nullopt, Now()};
    case ShowStatement::What::kHealth:
      // CurrentHealth evaluates synchronously when the sampler never
      // ticked, so this always reflects the actual engine.
      return ExecResult{engine_->telemetry().CurrentHealth().ToString(),
                        std::nullopt, Now()};
  }
  return Status::Internal("unknown SHOW statement");
}

Result<ExecResult> Session::ExecuteDelete(const DeleteStatement& stmt) {
  engine::Engine::WriteGuard guard = engine_->LockWrite(stmt.table);
  EXPDB_ASSIGN_OR_RETURN(Relation * rel, db().GetRelation(stmt.table));
  std::optional<Predicate> pred;
  if (stmt.where != nullptr) {
    EXPDB_ASSIGN_OR_RETURN(
        Predicate p, BindWhere(*stmt.where, {TableRef{stmt.table, ""}}, db()));
    pred = std::move(p);
  }
  // Expired tuples are not visible to DELETE; the removal is one delete
  // batch, so views and cached results see one change.
  const size_t deleted =
      rel->EraseWhere(pred.has_value() ? &*pred : nullptr, Now());
  if (deleted > 0) engine_->views().NotifyBaseChanged(stmt.table);
  return ExecResult{std::to_string(deleted) +
                        (deleted == 1 ? " row" : " rows") + " deleted from " +
                        stmt.table,
                    std::nullopt, Now()};
}

namespace {

/// Renders the metrics snapshot as a relation (metric STRING, type
/// STRING, value DOUBLE). Histograms expand to five rows:
/// <name>_count/_sum/_p50/_p95/_p99.
Relation SnapshotToRelation(const std::vector<obs::MetricSnapshot>& snap) {
  Schema schema =
      Schema::Make({Attribute{"metric", ValueType::kString},
                    Attribute{"type", ValueType::kString},
                    Attribute{"value", ValueType::kDouble}})
          .value();
  Relation rel(std::move(schema));
  for (const obs::MetricSnapshot& m : snap) {
    const std::string type(m.KindName());
    auto add = [&](const std::string& name, double value) {
      rel.InsertUnchecked(Tuple({Value(name), Value(type), Value(value)}),
                          Timestamp::Infinity());
    };
    if (m.kind == obs::MetricSnapshot::Kind::kHistogram) {
      add(m.name + "_count", static_cast<double>(m.count));
      add(m.name + "_sum", static_cast<double>(m.sum));
      add(m.name + "_p50", m.p50);
      add(m.name + "_p95", m.p95);
      add(m.name + "_p99", m.p99);
    } else {
      add(m.name, m.value);
    }
  }
  return rel;
}

}  // namespace

Result<ExecResult> Session::ExecuteStats(const StatsStatement& stmt) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (stmt.reset) {
    registry.ResetAll();
    obs::TraceRecorder::Global().Clear();
    return ExecResult{"metrics reset", std::nullopt, Now()};
  }
  switch (stmt.format) {
    case StatsStatement::Format::kPrometheus:
      return ExecResult{registry.PrometheusText(), std::nullopt, Now()};
    case StatsStatement::Format::kJson:
      return ExecResult{registry.JsonText(), std::nullopt, Now()};
    case StatsStatement::Format::kTable:
      break;
  }
  Relation rel = SnapshotToRelation(registry.Snapshot());
  if (!stmt.explain) {
    ExecResult out;
    out.message = "metrics (" + std::to_string(registry.MetricCount()) +
                  " registered)";
    out.relation = std::move(rel);
    out.served_at = Now();
    return out;
  }
  // EXPLAIN STATS: the table rendered as text plus the most recent spans
  // from the global trace ring.
  PrintOptions popts;
  popts.show_texp = false;
  popts.at = Now();
  popts.filter_expired = false;
  std::string msg = PrintRelation(rel, popts);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  std::vector<obs::SpanRecord> spans = recorder.Snapshot();
  constexpr size_t kMaxSpans = 16;
  const size_t begin = spans.size() > kMaxSpans ? spans.size() - kMaxSpans : 0;
  msg += "recent spans (" + std::to_string(spans.size() - begin) + " of " +
         std::to_string(recorder.total_recorded()) + " recorded):";
  if (begin == spans.size()) msg += "\n  (none)";
  for (size_t i = begin; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    msg += "\n  #" + std::to_string(s.id) +
           (s.parent_id != 0 ? " <- #" + std::to_string(s.parent_id) : "") +
           " " + s.name + " " + std::to_string(s.duration_ns) + "ns";
  }
  return ExecResult{std::move(msg), std::nullopt, Now()};
}

namespace {

Result<bool> ParseOnOff(const Value& v, const std::string& name) {
  if (v.is_int64()) return v.AsInt64() != 0;
  if (v.is_string()) {
    const std::string& s = v.AsString();
    if (s == "on" || s == "true" || s == "1") return true;
    if (s == "off" || s == "false" || s == "0") return false;
  }
  return Status::InvalidArgument("SET " + name + " expects on or off, got '" +
                                 v.ToString() + "'");
}

/// Shared validation for every integer-valued setting: rejects
/// non-integers (strings, doubles) and negative values with one uniform,
/// value-echoing error shape. `meaning` completes the sentence "expects
/// a non-negative integer ...".
Result<int64_t> ExpectNonNegativeInt(const SetStatement& stmt,
                                     const std::string& meaning) {
  if (!stmt.value.is_int64() || stmt.value.AsInt64() < 0) {
    return Status::InvalidArgument(
        "SET " + stmt.name + " expects a non-negative integer " + meaning +
        ", got '" + stmt.value.ToString() + "'");
  }
  return stmt.value.AsInt64();
}

}  // namespace

Result<ExecResult> Session::ExecuteSet(const SetStatement& stmt) {
  if (stmt.name == "slow_query_ns") {
    if (stmt.value.is_string() && stmt.value.AsString() == "off") {
      slow_query_threshold_ns_ = -1;
      return ExecResult{"slow_query_ns off", std::nullopt, Now()};
    }
    EXPDB_ASSIGN_OR_RETURN(
        slow_query_threshold_ns_,
        ExpectNonNegativeInt(stmt, "nanosecond threshold (or off)"));
  } else if (stmt.name == "parallelism") {
    EXPDB_ASSIGN_OR_RETURN(
        const int64_t n,
        ExpectNonNegativeInt(stmt, "(0 = hardware concurrency)"));
    eval_options_.parallelism = static_cast<size_t>(n);
  } else if (stmt.name == "result_cache_bytes") {
    EXPDB_ASSIGN_OR_RETURN(
        const int64_t bytes,
        ExpectNonNegativeInt(stmt,
                             "byte budget (0 disables the result cache)"));
    engine_->result_cache().set_max_bytes(static_cast<size_t>(bytes));
  } else if (stmt.name == "maintenance_interval_ms") {
    EXPDB_ASSIGN_OR_RETURN(
        const int64_t ms,
        ExpectNonNegativeInt(stmt, "millisecond interval"));
    // Configuring a cadence starts the background service (0 is clamped
    // to the 1ms minimum inside the service).
    engine_->maintenance().set_interval_ms(ms);
  } else if (stmt.name == "event_log") {
    EXPDB_ASSIGN_OR_RETURN(bool on, ParseOnOff(stmt.value, "event_log"));
    obs::EventLog::Global().set_enabled(on);
  } else if (stmt.name == "event_log_path") {
    if (!stmt.value.is_string()) {
      return Status::InvalidArgument(
          "SET event_log_path expects a quoted file path or off");
    }
    const std::string& path = stmt.value.AsString();
    obs::EventLog& log = obs::EventLog::Global();
    if (path.empty() || path == "off") {
      log.CloseSink();
      return ExecResult{"event log sink closed", std::nullopt, Now()};
    }
    std::string error;
    if (!log.OpenSink(path, &error)) {
      return Status::InvalidArgument("cannot open event log sink: " + error);
    }
    // Attaching a sink implies the caller wants events; enable the log so
    // SET event_log_path = '...' works as a one-statement switch-on.
    log.set_enabled(true);
  } else if (stmt.name == "telemetry_interval_ms") {
    EXPDB_ASSIGN_OR_RETURN(
        const int64_t ms,
        ExpectNonNegativeInt(stmt, "millisecond interval"));
    // Configuring a cadence starts the telemetry sampler (0 is clamped
    // to the 1ms minimum inside the service), mirroring
    // maintenance_interval_ms.
    engine_->telemetry().set_interval_ms(ms);
  } else if (stmt.name == "http_port") {
    EXPDB_ASSIGN_OR_RETURN(
        const int64_t port,
        ExpectNonNegativeInt(stmt, "port (0 stops the endpoint)"));
    if (port > 65535) {
      return Status::InvalidArgument("SET http_port expects a port <= 65535");
    }
    // SQL-side 0 means "stop" (the programmatic Start(0) ephemeral-port
    // form stays available to embedders and tests).
    if (port == 0) {
      engine_->StopHttpEndpoint();
      return ExecResult{"http endpoint stopped", std::nullopt, Now()};
    }
    EXPDB_ASSIGN_OR_RETURN(const int bound,
                           engine_->StartHttpEndpoint(static_cast<int>(port)));
    return ExecResult{"http endpoint listening on 127.0.0.1:" +
                          std::to_string(bound),
                      std::nullopt, Now()};
  } else {
    return Status::InvalidArgument(
        "unknown setting '" + stmt.name +
        "' (expected slow_query_ns, parallelism, result_cache_bytes, "
        "maintenance_interval_ms, telemetry_interval_ms, http_port, "
        "event_log, event_log_path)");
  }
  return ExecResult{"set " + stmt.name + " = " + stmt.value.ToString(),
                    std::nullopt, Now()};
}

namespace {

/// Renders one trace's spans as an indented tree (children sorted by
/// start time; spans whose parent never made it into the ring render as
/// roots rather than disappearing).
std::string RenderTraceTree(const std::vector<obs::SpanRecord>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::map<uint64_t, std::vector<size_t>> children;
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_id != 0 && index.count(spans[i].parent_id) > 0) {
      children[spans[i].parent_id].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  auto by_start = [&](size_t a, size_t b) {
    return spans[a].start_ns < spans[b].start_ns;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(), by_start);
  }
  std::string out;
  // Explicit stack (span index, depth) to avoid recursion on deep trees.
  std::vector<std::pair<size_t, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back({*it, 1});
  }
  while (!stack.empty()) {
    auto [i, depth] = stack.back();
    stack.pop_back();
    const obs::SpanRecord& s = spans[i];
    out += "\n" + std::string(static_cast<size_t>(depth) * 2, ' ') + s.name +
           " #" + std::to_string(s.id) + " " +
           std::to_string(s.duration_ns) + "ns [tid " +
           std::to_string(s.tid) + "]";
    if (s.tag != 0) out += " (node #" + std::to_string(s.tag) + ")";
    auto kids = children.find(s.id);
    if (kids != children.end()) {
      for (auto kit = kids->second.rbegin(); kit != kids->second.rend();
           ++kit) {
        stack.push_back({*kit, depth + 1});
      }
    }
  }
  return out;
}

}  // namespace

Result<ExecResult> Session::ExecuteTrace(const TraceStatement& stmt) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  switch (stmt.what) {
    case TraceStatement::What::kOn:
      recorder.set_enabled(true);
      return ExecResult{"tracing on", std::nullopt, Now()};
    case TraceStatement::What::kOff:
      recorder.set_enabled(false);
      return ExecResult{"tracing off", std::nullopt, Now()};
    case TraceStatement::What::kShow: {
      const std::vector<obs::SpanRecord> spans = recorder.Snapshot();
      // The TRACE SHOW statement itself runs under a live trace; show the
      // most recent *completed* one instead.
      const uint64_t current = obs::CurrentTraceContext().trace_id;
      uint64_t target = 0;  // trace ids are span ids: larger = newer
      for (const obs::SpanRecord& s : spans) {
        if (s.trace_id != current && s.trace_id > target) {
          target = s.trace_id;
        }
      }
      if (target == 0) {
        return ExecResult{"no completed traces recorded", std::nullopt,
                          Now()};
      }
      std::vector<obs::SpanRecord> trace_spans;
      for (const obs::SpanRecord& s : spans) {
        if (s.trace_id == target) trace_spans.push_back(s);
      }
      std::string msg = "trace #" + std::to_string(target) + " (" +
                        std::to_string(trace_spans.size()) +
                        (trace_spans.size() == 1 ? " span)" : " spans)");
      msg += RenderTraceTree(trace_spans);
      return ExecResult{std::move(msg), std::nullopt, Now()};
    }
    case TraceStatement::What::kExport: {
      const std::vector<obs::SpanRecord> spans = recorder.Snapshot();
      std::ofstream file(stmt.path, std::ios::trunc);
      if (!file) {
        return Status::InvalidArgument("cannot open '" + stmt.path +
                                       "' for writing");
      }
      file << obs::ChromeTraceJson(spans);
      file.close();
      if (!file) {
        return Status::InvalidArgument("failed writing '" + stmt.path + "'");
      }
      return ExecResult{"trace exported to " + stmt.path + " (" +
                            std::to_string(spans.size()) +
                            (spans.size() == 1 ? " span)" : " spans)"),
                        std::nullopt, Now()};
    }
  }
  return Status::Internal("unknown TRACE statement");
}

}  // namespace sql
}  // namespace expdb
