// ViewManager: a catalog of named materialized views maintained in
// synchrony with a shared database.

#ifndef EXPDB_VIEW_VIEW_MANAGER_H_
#define EXPDB_VIEW_VIEW_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "view/materialized_view.h"

namespace expdb {

/// \brief Owns and maintains a set of named views over one database.
///
/// The database is borrowed and must outlive the manager; each view's
/// relation is attached to it under the view's name. Time flows only
/// forward and is shared by all views via AdvanceAllTo.
///
/// Thread-safety (engine protocol, docs/CONCURRENCY.md): an internal
/// mutex, held for lookups only, guards the catalog maps and each view's
/// stale flag, so DML writers may call NotifyBaseChanged concurrently.
/// CreateView, DropView and AdvanceAllTo run under the engine's exclusive
/// lock; Read and Refresh under the view's lock and its bases' shared
/// locks (a Snapshot naming the view), or the exclusive lock. Returned
/// MaterializedView pointers stay valid only while the caller's engine
/// lock keeps DropView out.
class ViewManager {
 public:
  explicit ViewManager(Database* db);
  ~ViewManager();

  ViewManager(const ViewManager&) = delete;
  ViewManager& operator=(const ViewManager&) = delete;

  /// \brief Creates, materializes at `now` and attaches a view (attributes
  /// named `column_names` when given); AlreadyExists on any name clash.
  Result<MaterializedView*> CreateView(
      const std::string& name, ExpressionPtr expr,
      MaterializedView::Options options, Timestamp now,
      std::vector<std::string> column_names = {});

  Result<MaterializedView*> GetView(const std::string& name) const;

  Status DropView(const std::string& name);

  bool HasView(const std::string& name) const {
    std::lock_guard<std::mutex> guard(mu_);
    return views_.find(name) != views_.end();
  }

  /// \brief Runs due maintenance on every view.
  Status AdvanceAllTo(Timestamp now);

  /// \brief Notifies the manager that `relation` received an explicit
  /// update (insert/delete, as opposed to expiration): every dependent
  /// view is marked stale and will apply the recorded base deltas — or
  /// recompute, when the incremental path is unavailable — at its next
  /// maintenance point. Routed through the inverted relation→views
  /// dependency index, so the cost is O(dependents), not O(views). Each
  /// notification bumps the `expdb_view_notifications_total` counter; the
  /// per-view stale transitions show up in
  /// `expdb_view_marked_stale_total`.
  /// \return the number of views whose expression reads `relation` (0 is
  /// a normal outcome for relations no view depends on — including
  /// relations the manager has never heard of; notification is not an
  /// error path).
  size_t NotifyBaseChanged(const std::string& relation);

  /// \brief Names of the views whose expressions read `relation`
  /// (a lookup in the inverted dependency index).
  std::vector<std::string> DependentViews(const std::string& relation) const;

  /// \brief Reads the named view at `now` (MaterializedView::Read).
  Result<Relation> Read(const std::string& name, Timestamp now,
                        Timestamp* served_at = nullptr);

  /// \brief Brings the named views' relations to a state exact at `now`
  /// (MaterializedView::Refresh), for a query that reads them.
  Status Refresh(const std::vector<std::string>& names, Timestamp now);

  std::vector<std::string> ViewNames() const;
  size_t view_count() const {
    std::lock_guard<std::mutex> guard(mu_);
    return views_.size();
  }

  /// \brief Sum of all views' maintenance counters.
  ViewStats TotalStats() const;

 private:
  Database* db_;
  /// Guards views_, views_by_relation_, and stale-marking. A leaf in the
  /// lock order: acquired after the engine and relation locks, and no
  /// further lock is taken while held (docs/CONCURRENCY.md).
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MaterializedView>> views_;
  /// Inverted dependency index: base relation → names of the views whose
  /// expressions read it. Maintained by CreateView/DropView; used by
  /// NotifyBaseChanged for stale-marking and delta routing.
  std::map<std::string, std::set<std::string>> views_by_relation_;
  // Manager-level metrics: a counter of NotifyBaseChanged calls and a
  // gauge contributing this manager's live view count to the global
  // `expdb_view_count` sum (retracted on destruction).
  obs::Counter notifications_;
  obs::Gauge view_count_gauge_;
};

}  // namespace expdb

#endif  // EXPDB_VIEW_VIEW_MANAGER_H_
