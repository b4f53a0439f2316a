#include "view/view_manager.h"

namespace expdb {

ViewManager::ViewManager(const Database* db) : db_(db) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  notifications_.SetParent(r.GetCounter("expdb_view_notifications_total"));
  view_count_gauge_.SetParent(r.GetGauge("expdb_view_count"));
}

// Out-of-line so ~Gauge retracts this manager's view-count contribution
// from the global sum exactly once, here.
ViewManager::~ViewManager() = default;

Result<MaterializedView*> ViewManager::CreateView(
    const std::string& name, ExpressionPtr expr,
    MaterializedView::Options options, Timestamp now) {
  if (name.empty()) {
    return Status::InvalidArgument("view name must not be empty");
  }
  std::lock_guard<std::mutex> guard(mu_);
  if (views_.find(name) != views_.end()) {
    return Status::AlreadyExists("view '" + name + "' already exists");
  }
  auto view = std::make_unique<MaterializedView>(std::move(expr), options);
  // Name the view before the first materialization so its maintenance
  // events carry the catalog name from the start.
  view->set_name(name);
  EXPDB_RETURN_NOT_OK(view->Initialize(*db_, now));
  auto [it, inserted] = views_.emplace(name, std::move(view));
  for (const std::string& base :
       it->second->expression()->BaseRelationNames()) {
    views_by_relation_[base].insert(name);
  }
  view_count_gauge_.Set(static_cast<int64_t>(views_.size()));
  return it->second.get();
}

Result<MaterializedView*> ViewManager::GetView(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mu_);
  return GetViewLocked(name);
}

Result<MaterializedView*> ViewManager::GetViewLocked(
    const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  return it->second.get();
}

Status ViewManager::DropView(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  for (const std::string& base :
       it->second->expression()->BaseRelationNames()) {
    auto rit = views_by_relation_.find(base);
    if (rit != views_by_relation_.end()) {
      rit->second.erase(name);
      if (rit->second.empty()) views_by_relation_.erase(rit);
    }
  }
  views_.erase(it);
  view_count_gauge_.Set(static_cast<int64_t>(views_.size()));
  return Status::OK();
}

size_t ViewManager::NotifyBaseChanged(const std::string& relation) {
  notifications_.Increment();
  std::lock_guard<std::mutex> guard(mu_);
  auto rit = views_by_relation_.find(relation);
  if (rit == views_by_relation_.end()) return 0;
  size_t affected = 0;
  for (const std::string& name : rit->second) {
    auto it = views_.find(name);
    if (it == views_.end()) continue;
    it->second->MarkStale();
    ++affected;
  }
  return affected;
}

std::vector<std::string> ViewManager::DependentViews(
    const std::string& relation) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto rit = views_by_relation_.find(relation);
  if (rit == views_by_relation_.end()) return {};
  return std::vector<std::string>(rit->second.begin(), rit->second.end());
}

Status ViewManager::AdvanceAllTo(Timestamp now) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& [name, view] : views_) {
    EXPDB_RETURN_NOT_OK(view->AdvanceTo(*db_, now));
  }
  return Status::OK();
}

Result<Relation> ViewManager::Read(const std::string& name, Timestamp now,
                                   Timestamp* served_at) {
  std::lock_guard<std::mutex> guard(mu_);
  EXPDB_ASSIGN_OR_RETURN(MaterializedView * view, GetViewLocked(name));
  return view->Read(*db_, now, served_at);
}

std::vector<std::string> ViewManager::ViewNames() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, view] : views_) names.push_back(name);
  return names;
}

ViewStats ViewManager::TotalStats() const {
  std::lock_guard<std::mutex> guard(mu_);
  ViewStats total;
  for (const auto& [name, view] : views_) {
    const ViewStats s = view->stats();
    total.recomputations += s.recomputations;
    total.reads += s.reads;
    total.reads_from_materialization += s.reads_from_materialization;
    total.reads_moved_backward += s.reads_moved_backward;
    total.reads_moved_forward += s.reads_moved_forward;
    total.patches_applied += s.patches_applied;
    total.tuples_recomputed += s.tuples_recomputed;
    total.delta_applies += s.delta_applies;
    total.delta_fallbacks += s.delta_fallbacks;
  }
  return total;
}

}  // namespace expdb
