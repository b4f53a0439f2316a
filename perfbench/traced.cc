// The traced replay: sql::Session's statement pipeline re-driven through
// each layer's public functions, with one span per call. The SELECT path
// mirrors Session::ExecuteSelect / ExecutePlannedSelect (which are
// private); the drift guard in driver.cc checks that both paths agree.

#include <set>
#include <unordered_set>

#include "bench.h"
#include "engine/maintenance.h"
#include "plan/delta.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "sql/binder.h"
#include "sql/normalize.h"
#include "sql/parser.h"

namespace perfbench {

namespace sql = expdb::sql;
namespace plan = expdb::plan;
using expdb::Database;
using expdb::Relation;
using expdb::Timestamp;
using expdb::Tuple;
using expdb::Value;
using expdb::engine::Engine;

const char* LayerName(Layer layer) {
  static const char* const kNames[kLayers] = {
      "statement",
      "sql.parse",
      "sql.normalize",
      "sql.bind",
      "plan.stmt_cache_lookup",
      "plan.plan",
      "plan.instantiate",
      "plan.result_cache_lookup",
      "plan.result_cache_insert",
      "plan.execute",
      "relational.copy_out",
      "relational.delete_scan",
      "engine.snapshot",
      "engine.write_lock",
      "engine.exclusive_lock",
      "engine.maintenance_pass",
      "expiration.insert",
      "expiration.advance",
      "view.read",
      "view.advance_all",
      "view.notify",
  };
  return kNames[static_cast<int>(layer)];
}

void LayerTotals::Add(const LayerTotals& o) {
  for (int i = 0; i < kLayers; ++i) {
    calls[i] += o.calls[i];
    total_ns[i] += o.total_ns[i];
    self_ns[i] += o.self_ns[i];
  }
  for (int i = 0; i < kOpKinds; ++i) op_self_ns[i] += o.op_self_ns[i];
  executes += o.executes;
  scan_rows += o.scan_rows;
  root_rows += o.root_rows;
  stmt_cache_lookups += o.stmt_cache_lookups;
  stmt_cache_hits += o.stmt_cache_hits;
  selects += o.selects;
  select_ns += o.select_ns;
  select_execute_ns += o.select_execute_ns;
}

namespace {

// Session's output-name disambiguation (session.cc, file-local there).
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

void CollectFromNames(const sql::SelectStatement& stmt,
                      std::set<std::string>* out) {
  for (const sql::TableRef& ref : stmt.from) out->insert(ref.name);
  if (stmt.set_rhs != nullptr) CollectFromNames(*stmt.set_rhs, out);
}

OpKind OpKindOf(plan::PlanOp op) {
  switch (op) {
    case plan::PlanOp::kScan:
      return OpKind::kScan;
    case plan::PlanOp::kFilter:
      return OpKind::kFilter;
    case plan::PlanOp::kProject:
      return OpKind::kProject;
    case plan::PlanOp::kHashJoin:
    case plan::PlanOp::kCrossProduct:
    case plan::PlanOp::kHashSemiJoin:
    case plan::PlanOp::kHashAntiJoin:
      return OpKind::kJoin;
    case plan::PlanOp::kHashAggregate:
      return OpKind::kAggregate;
    default:
      return OpKind::kOther;
  }
}

}  // namespace

class TracedExecutor::Scope {
 public:
  Scope(TracedExecutor* t, Layer layer) : t_(t), index_(t->spans_.size()) {
    t->spans_.push_back(Span{layer, t->current_, 0, 0, t->stmt_id_});
    t->current_ = index_;
    t->spans_[index_].start_ns = NowNs();
  }
  ~Scope() {
    t_->spans_[index_].end_ns = NowNs();
    t_->current_ = t_->spans_[index_].parent;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TracedExecutor* t_;
  uint32_t index_;
};

template <typename F>
auto TracedExecutor::Timed(Layer layer, F&& f) {
  Scope scope(this, layer);
  return f();
}

TracedExecutor::TracedExecutor(std::shared_ptr<Engine> engine,
                               size_t keep_statements)
    : engine_(std::move(engine)), keep_statements_(keep_statements) {
  spans_.reserve(64);
}

Result<ExecResult> TracedExecutor::Execute(const std::string& text) {
  is_select_ = false;
  exec_root_wall_ns_ = 0;
  Result<ExecResult> out = Status::Internal("unset");
  {
    Scope root(this, Layer::kStatement);
    auto parsed = Timed(Layer::kParse, [&] { return sql::ParseStatement(text); });
    if (parsed.ok()) {
      out = Dispatch(parsed.value());
    } else {
      out = parsed.status();
    }
  }
  FinishStatement();
  return out;
}

size_t TracedExecutor::RunMaintenancePass() {
  size_t removed = 0;
  {
    Scope root(this, Layer::kMaintenancePass);
    removed = engine_->maintenance().RunOnce();
  }
  FinishStatement();
  return removed;
}

Result<ExecResult> TracedExecutor::Dispatch(const sql::Statement& stmt) {
  if (const auto* s = std::get_if<sql::SelectStatement>(&stmt)) {
    return RunSelect(*s);
  }
  if (const auto* s = std::get_if<sql::ExecutePreparedStatement>(&stmt)) {
    return RunPrepared(*s);
  }
  if (const auto* s = std::get_if<sql::InsertStatement>(&stmt)) {
    return RunInsert(*s);
  }
  if (const auto* s = std::get_if<sql::AdvanceStatement>(&stmt)) {
    return RunAdvance(*s);
  }
  if (const auto* s = std::get_if<sql::DeleteStatement>(&stmt)) {
    return RunDelete(*s);
  }
  return Status::InvalidArgument("the traced replay covers only SELECT, "
                                 "EXECUTE, INSERT, DELETE and ADVANCE TIME");
}

Result<ExecResult> TracedExecutor::RunSelect(const sql::SelectStatement& stmt) {
  expdb::ViewManager& views = engine_->views();
  if (stmt.from.size() == 1 && views.HasView(stmt.from[0].name) &&
      stmt.items.size() == 1 &&
      stmt.items[0].kind == sql::SelectItem::Kind::kStar &&
      stmt.where == nullptr && stmt.group_by.empty() &&
      stmt.set_op == sql::SelectStatement::SetOp::kNone) {
    Engine::ExclusiveGuard guard =
        Timed(Layer::kExclusiveLock, [&] { return engine_->LockExclusive(); });
    const Timestamp now = engine_->Now();
    ExecResult out;
    out.served_at = now;
    Result<Relation> rel = Timed(Layer::kViewRead, [&] {
      return views.Read(stmt.from[0].name, now, &out.served_at);
    });
    if (!rel.ok()) return rel.status();
    Status renamed = Timed(Layer::kCopyOut, [&] {
      auto names = engine_->GetViewColumns(stmt.from[0].name);
      if (!names.has_value()) return Status::OK();
      return rel->RenameAttributes(UniquifyNames(*names));
    });
    if (!renamed.ok()) return renamed;
    out.relation = rel.MoveValue();
    out.message = "view " + stmt.from[0].name;
    return out;
  }

  std::set<std::string> from_names;
  CollectFromNames(stmt, &from_names);
  for (const std::string& name : from_names) {
    if (views.HasView(name)) {
      return Status::InvalidArgument(
          "the traced replay does not cover views inside a query");
    }
  }
  is_select_ = true;
  Engine::Snapshot snap =
      Timed(Layer::kSnapshot, [&] { return engine_->OpenSnapshot(from_names); });
  const Timestamp now = engine_->Now();
  auto norm = Timed(Layer::kNormalize, [&] { return sql::NormalizeSelect(stmt); });
  if (!norm.ok()) return norm.status();
  std::optional<plan::PreparedPlan> skeleton =
      Timed(Layer::kStmtCacheLookup,
            [&] { return engine_->stmt_cache().Lookup(norm->fingerprint); });
  ++totals_.stmt_cache_lookups;
  if (skeleton.has_value()) {
    ++totals_.stmt_cache_hits;
  } else {
    plan::PreparedPlan fresh;
    auto bound = Timed(Layer::kBind,
                       [&] { return sql::BindSelect(norm->select, engine_->db()); });
    if (!bound.ok()) return bound.status();
    plan::PlannerOptions popts;
    popts.eval = eval_;
    auto planned = Timed(Layer::kPlan, [&] {
      return plan::Planner::Plan(bound->expr, engine_->db(), popts);
    });
    if (!planned.ok()) return planned.status();
    fresh.plan = planned.MoveValue();
    fresh.param_count = norm->args.size();
    fresh.fingerprint = norm->fingerprint;
    fresh.column_names = std::move(bound->column_names);
    engine_->stmt_cache().Insert(norm->fingerprint, fresh);
    skeleton = std::move(fresh);
  }
  return RunPlanned(*skeleton, norm->args, now);
}

Result<ExecResult> TracedExecutor::RunPrepared(
    const sql::ExecutePreparedStatement& stmt) {
  is_select_ = true;
  std::optional<plan::PreparedPlan> prepared = Timed(
      Layer::kStmtCacheLookup, [&] { return engine_->GetPrepared(stmt.name); });
  if (!prepared.has_value()) {
    return Status::NotFound("no prepared statement named '" + stmt.name + "'");
  }
  if (stmt.args.size() != prepared->param_count) {
    return Status::InvalidArgument("EXECUTE " + stmt.name +
                                   ": wrong argument count");
  }
  Engine::Snapshot snap = Timed(Layer::kSnapshot, [&] {
    return engine_->OpenSnapshot(
        prepared->plan->planned_expr()->BaseRelationNames());
  });
  return RunPlanned(*prepared, stmt.args, engine_->Now());
}

Result<ExecResult> TracedExecutor::RunPlanned(
    const plan::PreparedPlan& prepared, const std::vector<Value>& args,
    Timestamp now) {
  plan::ResultCache& cache = engine_->result_cache();
  const Database& db = engine_->db();
  // ResultCache::enabled() takes the cache's mutex, so each of Session's
  // three calls is timed inside the stage it gates.
  std::string key;
  std::optional<expdb::MaterializedResult> cached =
      Timed(Layer::kResultCacheLookup,
            [&]() -> std::optional<expdb::MaterializedResult> {
              key = plan::ResultCacheKey(prepared.fingerprint, args);
              if (!cache.enabled()) return std::nullopt;
              return cache.Lookup(key, db, now);
            });
  if (cached.has_value()) {
    ExecResult out;
    // Releasing the looked-up copy is part of serving it.
    out.relation = Timed(Layer::kCopyOut, [&] {
      Relation served = cached->relation.UnexpiredAt(now);
      cached.reset();
      return served;
    });
    out.served_at = now;
    out.message = "ok (cached)";
    return out;
  }
  plan::NodeCapture capture;
  plan::NodeCapture* capture_ptr = nullptr;
  auto bound = Timed(Layer::kInstantiate, [&] {
    auto b = plan::InstantiatePlan(prepared.plan, args);
    if (b.ok() && cache.enabled() && plan::PlanSupportsDelta(*b.value(), eval_)) {
      capture_ptr = &capture;
    }
    return b;
  });
  if (!bound.ok()) return bound.status();
  plan::PhysicalPlanPtr plan_ptr = bound.MoveValue();
  plan::PlanProfile profile;
  auto result = Timed(Layer::kExecute, [&] {
    return plan::ExecutePlan(*plan_ptr, db, now, eval_, &profile, capture_ptr);
  });
  if (!result.ok()) return result.status();
  FoldProfile(*plan_ptr, profile);
  ExecResult out;
  Status renamed = Timed(Layer::kCopyOut, [&] {
    Status s = result->relation.RenameAttributes(
        UniquifyNames(prepared.column_names));
    if (s.ok()) out.relation = result->relation;
    return s;
  });
  if (!renamed.ok()) return renamed;
  out.served_at = now;
  out.message = "ok";
  // The fill includes releasing the node capture it was seeded from.
  Timed(Layer::kResultCacheInsert, [&] {
    if (cache.enabled()) {
      cache.Insert(key, std::move(plan_ptr), capture_ptr, result.MoveValue(),
                   db, now);
    }
    capture.nodes.clear();
    return 0;
  });
  return out;
}

Result<ExecResult> TracedExecutor::RunInsert(const sql::InsertStatement& stmt) {
  Engine::WriteGuard guard =
      Timed(Layer::kWriteLock, [&] { return engine_->LockWrite(stmt.table); });
  const Timestamp now = engine_->Now();
  Timestamp texp = Timestamp::Infinity();
  if (stmt.expire_at.has_value()) {
    texp = *stmt.expire_at;
  } else if (stmt.ttl.has_value()) {
    texp = now + *stmt.ttl;
  }
  size_t inserted = 0;
  for (const std::vector<Value>& row : stmt.rows) {
    Tuple tuple(row);
    Status checked = engine_->constraints().CheckInsert(stmt.table, tuple);
    if (!checked.ok()) return checked;
    Status s = Timed(Layer::kExpirationInsert, [&] {
      return engine_->expiration().Insert(stmt.table, std::move(tuple), texp);
    });
    if (!s.ok()) return s;
    ++inserted;
  }
  Timed(Layer::kViewNotify,
        [&] { return engine_->views().NotifyBaseChanged(stmt.table); });
  std::string lifetime = texp.IsInfinite()
                             ? std::string("no expiration")
                             : ("expire at " + texp.ToString());
  return ExecResult{std::to_string(inserted) +
                        (inserted == 1 ? " row" : " rows") + " inserted into " +
                        stmt.table + " (" + lifetime + ")",
                    std::nullopt, now};
}

Result<ExecResult> TracedExecutor::RunAdvance(const sql::AdvanceStatement& stmt) {
  Engine::ExclusiveGuard guard =
      Timed(Layer::kExclusiveLock, [&] { return engine_->LockExclusive(); });
  expdb::ExpirationManager& expiration = engine_->expiration();
  Status s = Timed(Layer::kExpirationAdvance, [&] {
    return stmt.absolute ? expiration.AdvanceTo(Timestamp(stmt.amount))
                         : expiration.Advance(stmt.amount);
  });
  if (!s.ok()) return s;
  s = Timed(Layer::kViewAdvanceAll,
            [&] { return engine_->views().AdvanceAllTo(engine_->Now()); });
  if (!s.ok()) return s;
  return ExecResult{"time is " + engine_->Now().ToString(), std::nullopt,
                    engine_->Now()};
}

Result<ExecResult> TracedExecutor::RunDelete(const sql::DeleteStatement& stmt) {
  Engine::WriteGuard guard =
      Timed(Layer::kWriteLock, [&] { return engine_->LockWrite(stmt.table); });
  auto rel = engine_->db().GetRelation(stmt.table);
  if (!rel.ok()) return rel.status();
  std::optional<expdb::Predicate> pred;
  if (stmt.where != nullptr) {
    auto p = Timed(Layer::kBind, [&] {
      return sql::BindWhere(*stmt.where, {sql::TableRef{stmt.table, ""}},
                            engine_->db());
    });
    if (!p.ok()) return p.status();
    pred = p.MoveValue();
  }
  Relation* r = rel.value();
  const size_t deleted = Timed(Layer::kDeleteScan, [&] {
    size_t n = 0;
    for (const auto& [tuple, texp] : r->SortedEntries()) {
      if (texp <= engine_->Now()) continue;
      if (!pred.has_value() || pred->Evaluate(tuple)) {
        r->Erase(tuple);
        ++n;
      }
    }
    return n;
  });
  if (deleted > 0) {
    Timed(Layer::kViewNotify,
          [&] { return engine_->views().NotifyBaseChanged(stmt.table); });
  }
  return ExecResult{std::to_string(deleted) +
                        (deleted == 1 ? " row" : " rows") + " deleted from " +
                        stmt.table,
                    std::nullopt, engine_->Now()};
}

void TracedExecutor::FoldProfile(const plan::PhysicalPlan& plan,
                                 const plan::PlanProfile& profile) {
  ++totals_.executes;
  if (profile.nodes.size() <= plan.node_count()) return;
  exec_root_wall_ns_ = profile.at(plan.root().id).wall_ns;
  totals_.root_rows += profile.at(plan.root().id).rows;
  std::vector<const plan::PlanNode*> stack = {&plan.root()};
  while (!stack.empty()) {
    const plan::PlanNode* node = stack.back();
    stack.pop_back();
    const auto& stats = profile.at(node->id);
    int64_t self = stats.wall_ns;
    for (const plan::PlanNode* child : {node->left.get(), node->right.get()}) {
      if (child == nullptr) continue;
      self -= profile.at(child->id).wall_ns;
      stack.push_back(child);
    }
    totals_.op_self_ns[static_cast<int>(OpKindOf(node->op))] +=
        std::max<int64_t>(self, 0);
    if (node->op == plan::PlanOp::kScan) totals_.scan_rows += stats.rows;
  }
}

void TracedExecutor::FinishStatement() {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (size_t i = 1; i < spans_.size(); ++i) {
    child_ns[spans_[i].parent] += spans_[i].end_ns - spans_[i].start_ns;
  }
  last_stage_ns_ = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int l = static_cast<int>(s.layer);
    const int64_t dur = s.end_ns - s.start_ns;
    int64_t self = dur - child_ns[i];
    if (s.layer == Layer::kExecute) {
      self -= exec_root_wall_ns_;
      if (is_select_) totals_.select_execute_ns += dur;
    }
    ++totals_.calls[l];
    totals_.total_ns[l] += dur;
    totals_.self_ns[l] += std::max<int64_t>(self, 0);
    if (s.parent == 0) last_stage_ns_ += dur;
  }
  if (is_select_ && !spans_.empty()) {
    ++totals_.selects;
    totals_.select_ns += spans_[0].end_ns - spans_[0].start_ns;
  }
  if (stmt_id_ < keep_statements_) {
    const uint32_t base = kept_.size();
    for (Span s : spans_) {
      if (s.parent != kNoParent) s.parent += base;
      kept_.push_back(s);
    }
  }
  spans_.clear();
  current_ = kNoParent;
  ++stmt_id_;
}

}  // namespace perfbench
