#include "view/view_manager.h"

namespace expdb {

ViewManager::ViewManager(Database* db) : db_(db) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  notifications_.SetParent(r.GetCounter("expdb_view_notifications_total"));
  view_count_gauge_.SetParent(r.GetGauge("expdb_view_count"));
}

// Out-of-line so ~Gauge retracts this manager's view-count contribution
// from the global sum exactly once, here. The database outlives the
// views whose relations it borrows.
ViewManager::~ViewManager() {
  for (const auto& [name, view] : views_) db_->DetachView(name);
}

Result<MaterializedView*> ViewManager::CreateView(
    const std::string& name, ExpressionPtr expr,
    MaterializedView::Options options, Timestamp now,
    std::vector<std::string> column_names) {
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
  view->set_column_names(std::move(column_names));
  EXPDB_RETURN_NOT_OK(view->Initialize(*db_, now));
  std::set<std::string> bases = view->expression()->BaseRelationNames();
  for (const std::string& base : bases) {
    if (db_->FindView(base) != nullptr) {
      return Status::InvalidArgument("view '" + name + "' reads view '" +
                                     base + "'; views read tables only");
    }
  }
  EXPDB_RETURN_NOT_OK(db_->AttachView(name, &view->result().relation, bases));
  for (const std::string& base : bases) views_by_relation_[base].insert(name);
  auto [it, inserted] = views_.emplace(name, std::move(view));
  view_count_gauge_.Set(static_cast<int64_t>(views_.size()));
  return it->second.get();
}

Result<MaterializedView*> ViewManager::GetView(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mu_);
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
  db_->DetachView(name);
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
  // Not under mu_: the caller's exclusive engine lock keeps every catalog
  // change (CreateView, DropView, NotifyBaseChanged) out.
  for (auto& [name, view] : views_) {
    EXPDB_RETURN_NOT_OK(view->AdvanceTo(*db_, now));
  }
  return Status::OK();
}

Result<Relation> ViewManager::Read(const std::string& name, Timestamp now,
                                   Timestamp* served_at) {
  EXPDB_ASSIGN_OR_RETURN(MaterializedView * view, GetView(name));
  return view->Read(*db_, now, served_at);
}

Status ViewManager::Refresh(const std::vector<std::string>& names,
                            Timestamp now) {
  for (const std::string& name : names) {
    EXPDB_ASSIGN_OR_RETURN(MaterializedView * view, GetView(name));
    EXPDB_RETURN_NOT_OK(view->Refresh(*db_, now));
  }
  return Status::OK();
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
