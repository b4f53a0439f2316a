#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "engine/maintenance.h"
#include "engine/telemetry.h"

namespace expdb {
namespace engine {

namespace {

constexpr int64_t kExclusiveGraceNs =
    std::chrono::nanoseconds(Engine::kExclusiveGrace).count();

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Engine::Engine(EngineOptions options)
    : expiration_(options.expiration), views_(&expiration_.db()) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  snapshots_.SetParent(r.GetCounter("expdb_engine_snapshots_total"));
  write_waits_.SetParent(r.GetCounter("expdb_engine_write_waits_total"));
  maintenance_ = std::make_unique<MaintenanceService>(
      this, options.maintenance_interval_ms);
  telemetry_ = std::make_unique<TelemetryService>(
      this, options.telemetry_interval_ms, options.telemetry_ring_capacity);
  if (options.start_maintenance) maintenance_->Start();
  if (options.start_telemetry) telemetry_->Start();
}

Engine::~Engine() {
  // Teardown order: first the HTTP endpoint (its handler routes into
  // telemetry_), then the sampler (it reads every component), then
  // maintenance. Members are declared in this order already, but join
  // the threads explicitly to be clear about intent.
  if (http_ != nullptr) http_->Stop();
  telemetry_->Stop();
  maintenance_->Stop();
}

Result<int> Engine::StartHttpEndpoint(int port) {
  std::lock_guard<std::mutex> guard(registry_mu_);
  if (http_ == nullptr) {
    http_ = std::make_unique<obs::HttpEndpoint>(
        [this](const obs::HttpRequest& request) {
          return telemetry_->HandleHttp(request);
        });
  }
  std::string error;
  const int bound = http_->Start(port, &error);
  if (bound < 0) {
    return Status::InvalidArgument("http endpoint: " + error);
  }
  return bound;
}

void Engine::StopHttpEndpoint() {
  std::lock_guard<std::mutex> guard(registry_mu_);
  if (http_ != nullptr) http_->Stop();
}

int Engine::http_port() const {
  std::lock_guard<std::mutex> guard(registry_mu_);
  return http_ != nullptr && http_->running() ? http_->port() : 0;
}

Engine::Snapshot Engine::OpenSnapshot(const std::set<std::string>& relations) {
  Snapshot snap;
  snap.engine_lock_ = LockShared();
  // A view is read through its bases: their locks join the named tables'.
  std::set<std::string> tables;
  for (const std::string& name : relations) {
    if (const Database::View* view = db().FindView(name)) {
      if (snap.views_.empty()) tables = relations;
      tables.insert(view->bases.begin(), view->bases.end());
      snap.views_.push_back(name);
    }
  }
  const std::set<std::string>& locked =
      snap.views_.empty() ? relations : tables;
  // std::set iterates in sorted order: every snapshot takes table locks,
  // then view locks, in one global order (docs/CONCURRENCY.md).
  snap.relation_locks_.reserve(locked.size());
  for (const std::string& name : locked) {
    if (std::shared_mutex* mu = db().relation_lock(name)) {
      snap.relation_locks_.emplace_back(*mu);
    }
  }
  for (const std::string& name : snap.views_) {
    snap.view_locks_.emplace_back(db().FindView(name)->lock);
  }
  snapshots_.Increment();
  return snap;
}

Engine::Snapshot Engine::OpenSnapshotAll() {
  // Two-phase: the engine shared lock freezes the *catalog* shape (DDL
  // is exclusive), so the name list read under it stays accurate while
  // the relation locks are collected.
  Snapshot snap;
  snap.engine_lock_ = LockShared();
  const std::vector<std::string> names = db().RelationNames();
  snap.relation_locks_.reserve(names.size());
  for (const std::string& name : names) {  // RelationNames() is sorted
    snap.relation_locks_.emplace_back(*db().relation_lock(name));
  }
  snapshots_.Increment();
  return snap;
}

Engine::WriteGuard Engine::LockWrite(const std::string& relation) {
  WriteGuard guard;
  guard.engine_lock_ = LockShared();
  std::shared_mutex* mu = db().relation_lock(relation);
  if (mu == nullptr) return guard;  // the statement fails with NotFound
  guard.relation_lock_ =
      std::unique_lock<std::shared_mutex>(*mu, std::defer_lock);
  if (!guard.relation_lock_.try_lock()) {
    write_waits_.Increment();
    guard.relation_lock_.lock();
  }
  return guard;
}

std::shared_lock<std::shared_mutex> Engine::LockShared() {
  const int64_t since = exclusive_since_ns_.load(std::memory_order_acquire);
  if (since != 0 && SteadyNowNs() - since > kExclusiveGraceNs) {
    // Wait out the exclusive acquirer ahead of this one.
    std::lock_guard<std::mutex> turn(exclusive_turn_);
  }
  return std::shared_lock<std::shared_mutex>(engine_mu_);
}

Engine::ExclusiveGuard Engine::LockExclusive() {
  ExclusiveGuard guard;
  std::lock_guard<std::mutex> turn(exclusive_turn_);
  guard.engine_lock_ =
      std::unique_lock<std::shared_mutex>(engine_mu_, std::try_to_lock);
  if (!guard.engine_lock_.owns_lock()) {
    exclusive_since_ns_.store(SteadyNowNs());
    guard.engine_lock_.lock();
    exclusive_since_ns_.store(0);
  }
  return guard;
}

bool Engine::PutPrepared(const std::string& name, plan::PreparedPlan plan) {
  std::lock_guard<std::mutex> guard(registry_mu_);
  const bool replaced = prepared_.count(name) > 0;
  prepared_[name] = std::move(plan);
  return replaced;
}

std::optional<plan::PreparedPlan> Engine::GetPrepared(
    const std::string& name) const {
  std::lock_guard<std::mutex> guard(registry_mu_);
  auto it = prepared_.find(name);
  if (it == prepared_.end()) return std::nullopt;
  return it->second;
}

size_t Engine::prepared_count() const {
  std::lock_guard<std::mutex> guard(registry_mu_);
  return prepared_.size();
}

std::optional<std::vector<std::string>> Engine::GetViewColumns(
    const std::string& view) const {
  auto found = views_.GetView(view);
  if (!found.ok() || found.value()->column_names().empty()) {
    return std::nullopt;
  }
  return found.value()->column_names();
}

void Engine::InvalidateCachesFor(const std::string& table) {
  stmt_cache_.InvalidateBase(table);
  result_cache_.InvalidateBase(table);
  std::lock_guard<std::mutex> guard(registry_mu_);
  for (auto it = prepared_.begin(); it != prepared_.end();) {
    if (it->second.plan->planned_expr()->BaseRelationNames().count(table) >
        0) {
      it = prepared_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace engine
}  // namespace expdb
