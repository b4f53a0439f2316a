// Database: a catalog of named base relations, and of the materialized
// relations of the views over them.
//
// The paper's loosely-coupled setting assumes base relations are only
// modified by inserts and by expiration; Database additionally supports
// explicit deletes and updates for practical completeness (see DESIGN.md
// §6 for the interaction with view independence).

#ifndef EXPDB_RELATIONAL_DATABASE_H_
#define EXPDB_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/relation.h"

namespace expdb {

/// \brief A named collection of base relations (tables) plus, per view,
/// its borrowed materialized relation, read like a table. A table and a
/// view never share a name.
class Database {
 public:
  Database() = default;

  // Movable, not copyable: relations may be large and accidental catalog
  // copies are almost always bugs. Moves are single-threaded operations
  // (nobody may hold a relation_lock() across a move).
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// \brief Creates an empty relation under `name`.
  /// \return the new relation, or AlreadyExists (a table or a view).
  Result<Relation*> CreateRelation(const std::string& name, Schema schema);

  /// \brief Registers an already-populated relation under `name`.
  Status PutRelation(const std::string& name, Relation relation);

  /// \brief Looks up a table (mutable): views are not writable.
  Result<Relation*> GetRelation(const std::string& name);

  /// \brief Looks up a table or a view's relation (read-only).
  Result<const Relation*> GetRelation(const std::string& name) const;

  bool HasRelation(const std::string& name) const {
    return relations_.find(name) != relations_.end();
  }

  /// \brief Inserts `tuple` into the named relation (max-merging texp on
  /// duplicates, like Relation::Insert).
  ///
  /// This is the delta-friendly update path: when the target relation has
  /// delta tracking enabled (the view layer turns it on for view bases),
  /// the mutation is recorded in its delta ring and dependent materialized
  /// views can be maintained incrementally. `PutRelation` wholesale
  /// replacement, by contrast, always forces the full-recompute path.
  Status Insert(const std::string& name, Tuple tuple,
                Timestamp texp = Timestamp::Infinity());

  /// \brief Erases `tuple` from the named relation.
  /// \return true if a tuple was erased, false if it was absent; NotFound
  /// if the relation does not exist. Recorded in the delta ring like
  /// `Insert`.
  Result<bool> Erase(const std::string& name, const Tuple& tuple);

  /// \brief Drops the named relation.
  Status DropRelation(const std::string& name);

  /// \brief Table names in sorted order (views are not listed).
  std::vector<std::string> RelationNames() const;

  size_t relation_count() const { return relations_.size(); }

  /// \brief The reader/writer lock guarding the named relation's body,
  /// or nullptr when no such relation exists. The lock lives in the
  /// relation's catalog entry and is destroyed with it: the database does
  /// not lock around its own mutators, the engine (docs/CONCURRENCY.md)
  /// takes these locks and keeps CREATE/DROP out while any is held.
  std::shared_mutex* relation_lock(const std::string& name) const {
    auto it = relations_.find(name);
    return it != relations_.end() ? &it->second->lock : nullptr;
  }

  /// A view's entry: its relation (owned by the view, at a stable address),
  /// the tables it reads, and the lock guarding its in-place refreshes.
  struct View {
    const Relation* relation = nullptr;
    std::set<std::string> bases;
    mutable std::mutex lock;
  };

  /// \brief Makes `relation` readable as `name` until DetachView.
  /// \return AlreadyExists when a table or a view has the name.
  Status AttachView(const std::string& name, const Relation* relation,
                    std::set<std::string> bases);
  void DetachView(const std::string& name) { views_.erase(name); }

  /// \brief The named view's entry, or nullptr.
  const View* FindView(const std::string& name) const {
    auto it = views_.find(name);
    return it != views_.end() ? it->second.get() : nullptr;
  }

 private:
  /// Registers `relation` as table `name`: CreateRelation and PutRelation.
  Result<Relation*> AddTable(const std::string& name, Relation relation);

  /// One catalog entry: a relation and the lock guarding it, created and
  /// dropped together.
  struct Entry {
    explicit Entry(Relation r) : relation(std::move(r)) {}
    Relation relation;
    mutable std::shared_mutex lock;
  };
  // std::map keeps iteration deterministic; unique_ptr keeps Relation*
  // handles and lock addresses stable across catalog growth.
  std::map<std::string, std::unique_ptr<Entry>> relations_;
  std::map<std::string, std::unique_ptr<View>> views_;
};

}  // namespace expdb

#endif  // EXPDB_RELATIONAL_DATABASE_H_
