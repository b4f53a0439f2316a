// Session: an embedded ExpSQL endpoint — a statement executor bound to a
// shared engine (database + expiration management + materialized views).

#ifndef EXPDB_SQL_SESSION_H_
#define EXPDB_SQL_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "expiration/constraint.h"
#include "expiration/expiration_queue.h"
#include "obs/metrics.h"
#include "plan/cache.h"
#include "plan/planner.h"
#include "sql/ast.h"
#include "view/view_manager.h"

namespace expdb {
namespace sql {

/// \brief Outcome of executing one statement.
struct ExecResult {
  /// Human-readable summary ("1 row inserted", "time is 5", ...).
  std::string message;
  /// Result rows for SELECT (filtered through expτ at `served_at`).
  std::optional<Relation> relation;
  /// The time the result reflects. Equal to the session time except for
  /// Schrödinger views with move-backward/-forward policies.
  Timestamp served_at;
};

/// \brief Renders an ExecResult as a table (or the message) for a REPL.
std::string FormatExecResult(const ExecResult& result);

/// \brief One embedded database session.
///
/// All reads are expiration-transparent: queries never see expired tuples
/// and never mention expiration. Expiration surfaces only in INSERT
/// (EXPIRE AT / TTL), ADVANCE TIME, and triggers — exactly the paper's
/// interface contract.
///
/// Concurrency (docs/CONCURRENCY.md): sessions sharing one
/// engine::Engine may Execute concurrently from different threads. Each
/// statement acquires the engine locks it needs — SELECTs over tables
/// and views open a read Snapshot, INSERT/DELETE take the target table's
/// writer lock, DDL and ADVANCE TIME take the engine exclusively. A
/// single Session object itself is not a synchronization domain: use one
/// Session per thread (settings like SET parallelism are
/// session-local and unsynchronized). Constraint registration via
/// constraints() is a setup-time operation — do it before going
/// concurrent.
class Session {
 public:
  struct Options {
    ExpirationManagerOptions expiration;
    EvalOptions eval;
  };

  Session() : Session(Options{}) {}

  /// \brief A standalone session owning a private engine (the embedded
  /// single-user setup every example and most tests use).
  explicit Session(Options options);

  /// \brief A session attached to a shared engine. `options.expiration`
  /// is ignored (the engine already owns its database); eval/rewrite
  /// knobs stay per-session.
  Session(std::shared_ptr<engine::Engine> engine, Options options);
  explicit Session(std::shared_ptr<engine::Engine> engine);

  /// \brief Parses and executes one statement.
  Result<ExecResult> Execute(const std::string& statement);

  /// \brief Executes a ';'-separated script; stops at the first error.
  Result<std::vector<ExecResult>> ExecuteScript(const std::string& script);

  Database& db() { return engine_->db(); }
  const Database& db() const { return engine_->db(); }
  Timestamp Now() const { return engine_->Now(); }
  ExpirationManager& expiration() { return engine_->expiration(); }
  ViewManager& views() { return engine_->views(); }
  ConstraintSet& constraints() { return engine_->constraints(); }
  engine::Engine& engine() { return *engine_; }
  const std::shared_ptr<engine::Engine>& engine_ptr() const {
    return engine_;
  }

 private:
  /// Executes one parsed statement with the sql.statement span and the
  /// expdb_sql_* statement/error counters applied.
  Result<ExecResult> ExecuteCounted(const Statement& stmt);
  Result<ExecResult> ExecuteStatement(const Statement& stmt);
  Result<ExecResult> ExecuteSelect(const SelectStatement& stmt);
  Result<ExecResult> ExecuteCreateTable(const CreateTableStatement& stmt);
  Result<ExecResult> ExecuteInsert(const InsertStatement& stmt);
  Result<ExecResult> ExecuteCreateView(const CreateViewStatement& stmt);
  Result<ExecResult> ExecuteDrop(const DropStatement& stmt);
  Result<ExecResult> ExecuteAdvance(const AdvanceStatement& stmt);
  Result<ExecResult> ExecuteShow(const ShowStatement& stmt);
  Result<ExecResult> ExecuteDelete(const DeleteStatement& stmt);
  Result<ExecResult> ExecuteStats(const StatsStatement& stmt);
  Result<ExecResult> ExecuteExplain(const ExplainStatement& stmt);
  Result<ExecResult> ExecuteSet(const SetStatement& stmt);
  Result<ExecResult> ExecuteTrace(const TraceStatement& stmt);
  Result<ExecResult> ExecutePrepare(const PrepareStatement& stmt);
  Result<ExecResult> ExecuteRunPrepared(const ExecutePreparedStatement& stmt);
  Result<ExecResult> ExecuteCache(const CacheStatement& stmt);
  Result<ExecResult> ExecuteMaintenance(const MaintenanceStatement& stmt);
  Result<ExecResult> ExecuteMonitor(const MonitorStatement& stmt);

  /// The planner options every facade execution path uses: the session's
  /// EvalOptions, expiration-aware optimizations on, Sec. 3.1 rewrites
  /// off. Shared by SELECT, PREPARE, and EXPLAIN so the rendered EXPLAIN
  /// plan is the one a plain SELECT runs.
  plan::PlannerOptions MakePlannerOptions() const;

  /// The shared tail of every cached execution (normalized SELECT and
  /// EXECUTE): result-cache lookup, then on a miss InstantiatePlan +
  /// ExecutePlan (capturing node state when the plan is
  /// incrementalizable) and a result-cache fill. The caller must hold a
  /// Snapshot covering the plan's base relations.
  Result<ExecResult> ExecutePlannedSelect(const plan::PreparedPlan& prepared,
                                          const std::vector<Value>& args,
                                          Timestamp now);

  /// The engine this session executes against. Private to this session
  /// for the Options ctor; shared between sessions for the engine ctor.
  std::shared_ptr<engine::Engine> engine_;
  EvalOptions eval_options_;
  // Process-wide SQL metrics (registry-owned; see docs/OBSERVABILITY.md).
  obs::Counter* statements_metric_;
  obs::Counter* errors_metric_;
  obs::Counter* slow_queries_metric_;
  obs::Histogram* statement_latency_;
  /// SET slow_query_ns: statements at or above this wall time bump
  /// expdb_sql_slow_queries_total and emit a "slow_query" event. Negative
  /// disables (the default).
  int64_t slow_query_threshold_ns_ = -1;
};

}  // namespace sql
}  // namespace expdb

#endif  // EXPDB_SQL_SESSION_H_
