// Database: a catalog of named base relations.
//
// The paper's loosely-coupled setting assumes base relations are only
// modified by inserts and by expiration; Database additionally supports
// explicit deletes and updates for practical completeness (see DESIGN.md
// §6 for the interaction with view independence).

#ifndef EXPDB_RELATIONAL_DATABASE_H_
#define EXPDB_RELATIONAL_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/relation.h"

namespace expdb {

/// \brief A named collection of base relations.
class Database {
 public:
  Database() = default;

  // Movable, not copyable: relations may be large and accidental catalog
  // copies are almost always bugs. Moves are single-threaded operations
  // (nobody may hold locks from relation_lock() across a move); the
  // moved-from database is left empty with a fresh lock table.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&& other) noexcept
      : relations_(std::move(other.relations_)),
        locks_(std::move(other.locks_)),
        epoch_(other.epoch_.load(std::memory_order_relaxed)) {}
  Database& operator=(Database&& other) noexcept {
    if (this != &other) {
      relations_ = std::move(other.relations_);
      locks_ = std::move(other.locks_);
      epoch_.store(other.epoch_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
    return *this;
  }

  /// \brief Creates an empty relation under `name`.
  /// \return the new relation, or AlreadyExists.
  Result<Relation*> CreateRelation(const std::string& name, Schema schema);

  /// \brief Registers an already-populated relation under `name`.
  Status PutRelation(const std::string& name, Relation relation);

  /// \brief Looks up a relation (mutable).
  Result<Relation*> GetRelation(const std::string& name);

  /// \brief Looks up a relation (read-only).
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

  /// \brief Relation names in sorted order.
  std::vector<std::string> RelationNames() const;

  size_t relation_count() const { return relations_.size(); }

  // --- concurrency plumbing (engine layer; docs/CONCURRENCY.md) -----------
  //
  // The database itself stays a passive catalog: it does not lock around
  // its own mutators. Instead it supplies the two primitives the engine's
  // epoch-versioned scheme is built from — a per-relation reader/writer
  // lock and a catalog-wide mutation epoch — and the engine (or any other
  // coordinator) enforces the locking protocol.

  /// \brief The reader/writer lock guarding the named relation's body.
  /// Created on first request and never discarded (locks must outlive
  /// DROP so a guard held across a drop stays valid); the lock table is
  /// internally synchronized and safe to call from any thread.
  std::shared_mutex& relation_lock(const std::string& name) const {
    std::lock_guard<std::mutex> guard(locks_mu_);
    auto [it, inserted] = locks_.try_emplace(name, nullptr);
    if (inserted) it->second = std::make_unique<std::shared_mutex>();
    return *it->second;
  }

  /// \brief Monotone catalog version: bumped by every Database-level
  /// mutator and by writers releasing an engine write guard. Snapshot
  /// readers record it; an unchanged epoch means "no write completed in
  /// between".
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// \brief Advances the epoch (writers call this after mutating).
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  // std::map keeps iteration deterministic; unique_ptr keeps Relation*
  // handles stable across catalog growth.
  std::map<std::string, std::unique_ptr<Relation>> relations_;
  /// Per-relation locks; unique_ptr keeps shared_mutex addresses stable
  /// across map growth. Guarded by locks_mu_ (the mutexes themselves are
  /// of course used unguarded).
  mutable std::map<std::string, std::unique_ptr<std::shared_mutex>> locks_;
  mutable std::mutex locks_mu_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace expdb

#endif  // EXPDB_RELATIONAL_DATABASE_H_
