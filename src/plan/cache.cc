#include "plan/cache.h"

#include <algorithm>
#include <utility>

#include "obs/log.h"
#include "obs/trace.h"

namespace expdb {
namespace plan {

namespace {

void LogCacheEvent(const char* event, std::vector<obs::LogField> fields) {
  obs::EventLog& log = obs::EventLog::Global();
  if (!log.enabled()) return;
  log.Emit(obs::LogSeverity::kInfo, "sql", event, std::move(fields));
}

}  // namespace

obs::Counter* PlanCacheHits() {
  static obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
      "expdb_plan_cache_hits_total",
      "Executions served from a cached physical plan");
  return hits;
}

// --- parameterized plans ---------------------------------------------------

size_t ExpressionParameterCount(const ExpressionPtr& expr) {
  if (expr == nullptr) return 0;
  size_t n = expr->predicate().ParameterCount();
  n = std::max(n, ExpressionParameterCount(expr->left()));
  n = std::max(n, ExpressionParameterCount(expr->right()));
  return n;
}

Result<ExpressionPtr> BindExpressionParameters(
    const ExpressionPtr& expr, const std::vector<Value>& args) {
  if (expr == nullptr || ExpressionParameterCount(expr) == 0) return expr;
  EXPDB_ASSIGN_OR_RETURN(ExpressionPtr left,
                         BindExpressionParameters(expr->left(), args));
  EXPDB_ASSIGN_OR_RETURN(ExpressionPtr right,
                         BindExpressionParameters(expr->right(), args));
  switch (expr->kind()) {
    case ExprKind::kBase:
      return expr;
    case ExprKind::kSelect: {
      EXPDB_ASSIGN_OR_RETURN(Predicate p,
                             expr->predicate().BindParameters(args));
      return Expression::MakeSelect(std::move(left), std::move(p));
    }
    case ExprKind::kProject:
      return Expression::MakeProject(std::move(left), expr->projection());
    case ExprKind::kProduct:
      return Expression::MakeProduct(std::move(left), std::move(right));
    case ExprKind::kUnion:
      return Expression::MakeUnion(std::move(left), std::move(right));
    case ExprKind::kJoin: {
      EXPDB_ASSIGN_OR_RETURN(Predicate p,
                             expr->predicate().BindParameters(args));
      return Expression::MakeJoin(std::move(left), std::move(right),
                                  std::move(p));
    }
    case ExprKind::kIntersect:
      return Expression::MakeIntersect(std::move(left), std::move(right));
    case ExprKind::kDifference:
      return Expression::MakeDifference(std::move(left), std::move(right));
    case ExprKind::kAggregate:
      return Expression::MakeAggregate(std::move(left), expr->group_by(),
                                       expr->aggregate());
    case ExprKind::kSemiJoin: {
      EXPDB_ASSIGN_OR_RETURN(Predicate p,
                             expr->predicate().BindParameters(args));
      return Expression::MakeSemiJoin(std::move(left), std::move(right),
                                      std::move(p));
    }
    case ExprKind::kAntiJoin: {
      EXPDB_ASSIGN_OR_RETURN(Predicate p,
                             expr->predicate().BindParameters(args));
      return Expression::MakeAntiJoin(std::move(left), std::move(right),
                                      std::move(p));
    }
  }
  return Status::Internal("unhandled expression kind in parameter binding");
}

namespace {

Result<std::unique_ptr<PlanNode>> CloneBound(const PlanNode& node,
                                             const std::vector<Value>& args) {
  auto copy = std::make_unique<PlanNode>();
  copy->id = node.id;
  copy->op = node.op;
  EXPDB_ASSIGN_OR_RETURN(copy->expr,
                         BindExpressionParameters(node.expr, args));
  copy->schema = node.schema;
  copy->est_rows = node.est_rows;
  copy->build_left = node.build_left;
  copy->cse_id = node.cse_id;
  copy->const_false = node.const_false;
  copy->parallel = node.parallel;
  copy->per_group = node.per_group;
  if (node.left != nullptr) {
    EXPDB_ASSIGN_OR_RETURN(copy->left, CloneBound(*node.left, args));
  }
  if (node.right != nullptr) {
    EXPDB_ASSIGN_OR_RETURN(copy->right, CloneBound(*node.right, args));
  }
  return copy;
}

}  // namespace

Result<PhysicalPlanPtr> InstantiatePlan(const PhysicalPlanPtr& plan,
                                        const std::vector<Value>& args) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  EXPDB_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> root,
                         CloneBound(plan->root(), args));
  EXPDB_ASSIGN_OR_RETURN(ExpressionPtr source,
                         BindExpressionParameters(plan->source_expr(), args));
  EXPDB_ASSIGN_OR_RETURN(
      ExpressionPtr planned,
      BindExpressionParameters(plan->planned_expr(), args));
  return std::make_shared<const PhysicalPlan>(
      std::move(root), plan->node_count(), std::move(source),
      std::move(planned), plan->rewrites(), plan->options());
}

// --- tier 1: statement/plan cache ------------------------------------------

std::optional<PreparedPlan> StatementCache::Lookup(
    const std::string& fingerprint) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++hits_;
  PlanCacheHits()->Increment();
  return it->second.plan;
}

void StatementCache::Insert(const std::string& fingerprint,
                            PreparedPlan plan) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> guard(mu_);
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (entries_.size() >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(fingerprint);
  entries_.emplace(fingerprint, Entry{std::move(plan), lru_.begin()});
}

void StatementCache::InvalidateBase(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const ExpressionPtr& expr = it->second.plan.plan->planned_expr();
    if (expr != nullptr && expr->BaseRelationNames().count(name) > 0) {
      lru_.erase(it->second.lru_it);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void StatementCache::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  entries_.clear();
  lru_.clear();
}

// --- tier 2: expiration-stamped result cache --------------------------------

std::string ResultCacheKey(const std::string& fingerprint,
                           const std::vector<Value>& args) {
  std::string key = fingerprint;
  for (const Value& v : args) {
    key += '\x1f';
    switch (v.type()) {
      case ValueType::kNull:
        key += "n";
        break;
      case ValueType::kInt64:
        key += "i" + v.ToString();
        break;
      case ValueType::kDouble:
        key += "d" + v.ToString();
        break;
      case ValueType::kString: {
        // Length-prefixed so payload bytes can never collide with the
        // delimiter or another argument's rendering.
        const std::string s = v.ToString();
        key += "s" + std::to_string(s.size()) + ":" + s;
        break;
      }
    }
  }
  return key;
}

size_t EstimateResultBytes(const Relation& relation) {
  // Fixed per-entry overhead (plan + cursors + map/list nodes) plus the
  // materialization's rows.
  size_t bytes = 512 + sizeof(Relation);
  for (const Relation::Entry& e : relation.entries()) {
    bytes += ResultEntryBytes(e.tuple);
  }
  return bytes;
}

ResultCache::ResultCache() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  hits_.SetParent(reg.GetCounter(
      "expdb_result_cache_hits_total",
      "Statements served from the expiration-stamped result cache"));
  misses_.SetParent(reg.GetCounter("expdb_result_cache_misses_total",
                                   "Result-cache lookups that fell through "
                                   "to execution"));
  for (size_t r = 0; r < kMissReasons; ++r) {
    const std::string name = MissReasonName(static_cast<MissReason>(r));
    const std::string metric = "expdb_result_cache_misses_" + name + "_total";
    const std::string help = "Result-cache misses for reason " + name;
    miss_reasons_[r].SetParent(reg.GetCounter(metric, help));
  }
  patches_.SetParent(reg.GetCounter(
      "expdb_result_cache_patches_total",
      "Result-cache hits served after delta patching the entry"));
  evictions_.SetParent(reg.GetCounter("expdb_result_cache_evictions_total",
                                      "Result-cache entries evicted by the "
                                      "LRU byte budget"));
  admissions_.SetParent(reg.GetCounter(
      "expdb_result_cache_admissions_total",
      "Result-cache fills admitted on their key's second sighting"));
  rejections_.SetParent(reg.GetCounter(
      "expdb_result_cache_rejections_total",
      "Result-cache fills skipped on their key's first sighting"));
  bytes_gauge_.SetParent(reg.GetGauge(
      "expdb_result_cache_bytes", "Estimated bytes held by result caches"));
  lookup_latency_ = reg.GetHistogram("expdb_result_cache_lookup_latency_ns",
                                     "Result-cache lookup latency (ns)");
}

void ResultCache::set_max_bytes(size_t bytes) {
  if (bytes == 0) {
    // Disabling drops every entry, which is not an eviction. Insert
    // re-checks the budget under mu_, so nothing lands after Clear().
    max_bytes_.store(0, std::memory_order_relaxed);
    Clear();
    return;
  }
  std::vector<EntryPtr> dropped;  // destroyed after mu_ is released
  std::lock_guard<std::mutex> guard(mu_);
  max_bytes_.store(bytes, std::memory_order_relaxed);
  if (bytes_ > bytes) EvictFor(0, nullptr, &dropped);
}

size_t ResultCache::SightingSlot(const std::string& key) {
  return KeyHash(key) % kSightingSlots;
}

void ResultCache::RecordSighting(uint64_t hash) {
  std::atomic<uint64_t>& slot = SlotFor(hash);
  const uint64_t tag = SightingTag(hash);
  const uint64_t seen = slot.load(std::memory_order_relaxed);
  slot.store((seen & ~kSeenTwice) == tag ? tag | kSeenTwice : tag,
             std::memory_order_relaxed);
}

void ResultCache::Admit(uint64_t hash) {
  SlotFor(hash).store(SightingTag(hash) | kSeenTwice,
                      std::memory_order_relaxed);
}

void ResultCache::SetBytes(size_t bytes) {
  bytes_ = bytes;
  bytes_gauge_.Set(static_cast<int64_t>(bytes_));
}

void ResultCache::DropEntry(EntryMap::iterator it,
                            std::vector<EntryPtr>* dropped) {
  // The key had earned its place: whatever dropped it (lapse, churn,
  // broken history, failed patch, eviction, DDL), its next fill is
  // admitted without a fresh second sighting.
  Admit(KeyHash(it->first));
  SetBytes(bytes_ - it->second->bytes);
  lru_.erase(it->second->lru_it);
  dropped->push_back(std::move(it->second));
  entries_.erase(it);
}

void ResultCache::Evict(EntryMap::iterator it,
                        std::vector<EntryPtr>* dropped) {
  evictions_.Increment();
  LogCacheEvent("cache_evict",
                {{"entry_bytes", std::to_string(it->second->bytes)},
                 {"cache_bytes", std::to_string(bytes_)},
                 {"budget", std::to_string(max_bytes())}});
  DropEntry(it, dropped);
}

void ResultCache::EvictFor(size_t need, const std::string* keep,
                           std::vector<EntryPtr>* dropped) {
  while (bytes_ + need > max_bytes() && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    if (keep != nullptr && it->first == *keep) {
      // The protected entry is the LRU tail; nothing older to evict.
      if (lru_.size() == 1) return;
      // Rotate it to the front so older-than-it entries can go.
      Touch(it->second.get());
      continue;
    }
    Evict(it, dropped);
  }
}

void ResultCache::Touch(Entry* entry) {
  lru_.splice(lru_.begin(), lru_, entry->lru_it);
}

std::optional<MaterializedResult> ResultCache::Miss(MissReason reason) {
  misses_.Increment();
  miss_reasons_[static_cast<size_t>(reason)].Increment();
  LogCacheEvent("cache_miss", {{"reason", MissReasonName(reason)}});
  return std::nullopt;
}

std::optional<MissReason> ResultCache::Refresh(Entry* e, const Database& db,
                                               Timestamp now, bool* patched) {
  Materialization& m = e->materialization;
  Materialization::Drift drift;
  if (auto reason = m.Collect(db, now, &drift)) return reason;
  if (drift.deltas.empty()) return std::nullopt;
  int64_t delta_bytes = 0;
  auto applied = m.Patch(drift, now, &delta_bytes);
  if (!applied.ok()) return MissReason::kPatchFailed;
  e->result_bytes += static_cast<size_t>(delta_bytes);
  e->texp.store(m.result().texp, std::memory_order_relaxed);
  if (!(now < m.result().texp)) return MissReason::kLapsedAfterPatch;
  e->charge.store(e->result_bytes + m.propagator()->EstimateBytes(),
                  std::memory_order_relaxed);
  LogCacheEvent("cache_patch",
                {{"ops", std::to_string(applied->ops_out)},
                 {"ops_total", std::to_string(applied->ops_total)},
                 {"texp", m.result().texp.ToString()}});
  *patched = true;
  return std::nullopt;
}

std::optional<MaterializedResult> ResultCache::Lookup(const std::string& key,
                                                      const Database& db,
                                                      Timestamp now) {
  obs::ScopedSpan span("sql.result_cache.lookup", lookup_latency_);
  // 1. Under mu_: find and pin the entry.
  EntryPtr entry;
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      RecordSighting(KeyHash(key));
    } else {
      entry = it->second;
      Touch(entry.get());
    }
  }
  if (entry == nullptr) return Miss(MissReason::kAbsent);

  // 2. Under the entry mutex only: validate, patch, copy what is served.
  std::optional<MissReason> missed;
  bool patched = false;
  std::optional<MaterializedResult> served;
  {
    std::lock_guard<std::mutex> guard(entry->mu);
    missed = entry->dead;
    if (!missed.has_value()) missed = Refresh(entry.get(), db, now, &patched);
    entry->dead = missed;
    if (!missed.has_value()) {
      const MaterializedResult& cached = entry->materialization.result();
      MaterializedResult& out = served.emplace();
      out.relation = cached.relation.UnexpiredAt(now);
      out.materialized_at = cached.materialized_at;
      out.texp = cached.texp;
      out.validity = cached.validity;
    }
  }

  // 3. Back under mu_ only when the outcome changes cache-wide state. A
  // detached entry (replaced, evicted, cleared) is no longer charged.
  if (missed.has_value() || patched) {
    std::vector<EntryPtr> dropped;  // destroyed after mu_ is released
    std::lock_guard<std::mutex> guard(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second == entry) {
      if (missed.has_value()) {
        DropEntry(it, &dropped);
      } else {
        const size_t charge = entry->charge.load(std::memory_order_relaxed);
        SetBytes(bytes_ - entry->bytes + charge);
        entry->bytes = charge;
        if (charge > max_bytes()) {
          Evict(it, &dropped);
          missed = MissReason::kEvictedByPatch;
        } else if (bytes_ > max_bytes()) {
          EvictFor(0, &key, &dropped);
        }
      }
    }
  }
  if (missed.has_value()) return Miss(*missed);
  if (patched) patches_.Increment();
  hits_.Increment();
  return served;
}

void ResultCache::Insert(const std::string& key, PhysicalPlanPtr plan,
                         const NodeCapture* capture, MaterializedResult result,
                         const Database& db, Timestamp now) {
  if (plan == nullptr || !enabled()) return;
  // A lapsed (or immediately lapsing) materialization can never satisfy a
  // future `now < texp` check.
  if (!(now < result.texp)) return;
  const uint64_t hash = KeyHash(key);
  if (SlotFor(hash).load(std::memory_order_relaxed) !=
      (SightingTag(hash) | kSeenTwice)) {
    rejections_.Increment();
    return;
  }
  admissions_.Increment();
  // The whole entry is built before mu_ is taken: the cursors stay put
  // under the caller's reader locks, and the byte estimate and propagator
  // seeding read only this execution's state.
  auto e = std::make_shared<Entry>();
  e->result_bytes = EstimateResultBytes(result.relation);
  if (e->result_bytes > max_bytes()) return;
  e->texp.store(result.texp, std::memory_order_relaxed);
  e->materialization = Materialization(std::move(result));
  if (!e->materialization.Seed(plan, capture, db)) return;
  const DeltaPropagator* p = e->materialization.propagator();
  e->bytes = e->result_bytes + (p != nullptr ? p->EstimateBytes() : 0);
  if (e->bytes > max_bytes()) return;
  e->charge.store(e->bytes, std::memory_order_relaxed);

  std::vector<EntryPtr> dropped;  // destroyed after mu_ is released
  std::lock_guard<std::mutex> guard(mu_);
  // The budget may have shrunk (or been disabled) since the check above.
  if (e->bytes > max_bytes()) return;
  auto existing = entries_.find(key);
  if (existing != entries_.end()) DropEntry(existing, &dropped);
  EvictFor(e->bytes, nullptr, &dropped);
  lru_.push_front(key);
  e->lru_it = lru_.begin();
  SetBytes(bytes_ + e->bytes);
  entries_.emplace(key, std::move(e));
}

void ResultCache::InvalidateBase(const std::string& name) {
  std::vector<EntryPtr> dropped;  // destroyed after mu_ is released
  std::lock_guard<std::mutex> guard(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    bool reads = false;
    for (const auto& [base, cursor] : it->second->materialization.bases()) {
      if (base == name) {
        reads = true;
        break;
      }
    }
    if (reads) {
      auto victim = it++;
      DropEntry(victim, &dropped);
    } else {
      ++it;
    }
  }
}

void ResultCache::Clear() {
  EntryMap cleared;  // destroyed after mu_ is released
  std::lock_guard<std::mutex> guard(mu_);
  cleared.swap(entries_);
  lru_.clear();
  SetBytes(0);
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.patches = patches_.value();
  s.evictions = evictions_.value();
  s.admitted = admissions_.value();
  s.rejected = rejections_.value();
  for (size_t r = 0; r < kMissReasons; ++r) {
    s.misses_by_reason[r] = miss_reasons_[r].value();
  }
  s.max_bytes = max_bytes();
  std::lock_guard<std::mutex> guard(mu_);
  s.entries = entries_.size();
  s.bytes = bytes_;
  return s;
}

size_t ResultCache::CountStaleAt(Timestamp now) const {
  std::lock_guard<std::mutex> guard(mu_);
  size_t stale = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry->texp.load(std::memory_order_relaxed) <= now) ++stale;
  }
  return stale;
}

}  // namespace plan
}  // namespace expdb
