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
/// The database is borrowed; it must outlive the manager. Time flows only
/// forward and is shared by all views via AdvanceAllTo.
///
/// Thread-safety (engine protocol, docs/CONCURRENCY.md): the catalog maps
/// and each view's stale flag are guarded by an internal mutex, so
/// NotifyBaseChanged may be called by concurrent DML writers (which hold
/// only the engine's shared lock) while other sessions consult
/// HasView/ViewNames. Operations that read or rewrite view *bodies*
/// against the database — CreateView, DropView, AdvanceAllTo, Read — must
/// run under the engine's exclusive lock; the internal mutex alone does
/// not protect the underlying base relations. Returned MaterializedView
/// pointers stay valid only while the caller's engine lock keeps DropView
/// out.
class ViewManager {
 public:
  explicit ViewManager(const Database* db);
  ~ViewManager();

  ViewManager(const ViewManager&) = delete;
  ViewManager& operator=(const ViewManager&) = delete;

  /// \brief Creates and materializes a view at time `now`.
  Result<MaterializedView*> CreateView(const std::string& name,
                                       ExpressionPtr expr,
                                       MaterializedView::Options options,
                                       Timestamp now);

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

  /// \brief Reads the named view at `now`.
  Result<Relation> Read(const std::string& name, Timestamp now,
                        Timestamp* served_at = nullptr);

  std::vector<std::string> ViewNames() const;
  size_t view_count() const {
    std::lock_guard<std::mutex> guard(mu_);
    return views_.size();
  }

  /// \brief Sum of all views' maintenance counters.
  ViewStats TotalStats() const;

 private:
  /// Unlocked body of GetView, for internal use while mu_ is held.
  Result<MaterializedView*> GetViewLocked(const std::string& name) const;

  const Database* db_;
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
