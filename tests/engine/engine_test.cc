// Engine facade tests: snapshots and relation locks, shared caches and
// prepared statements across sessions, write-wait accounting, and the
// SessionManager (docs/CONCURRENCY.md).

#include "engine/engine.h"

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/session_manager.h"
#include "sql/session.h"

namespace expdb {
namespace engine {
namespace {

sql::ExecResult MustExec(sql::Session& s, const std::string& stmt) {
  auto r = s.Execute(stmt);
  EXPECT_TRUE(r.ok()) << stmt << " -> " << r.status().ToString();
  return r.ok() ? r.MoveValue() : sql::ExecResult{};
}

size_t RowsAt(const sql::ExecResult& r) {
  EXPECT_TRUE(r.relation.has_value());
  return r.relation.has_value() ? r.relation->CountUnexpiredAt(r.served_at)
                                : 0;
}

TEST(EngineTest, SnapshotPinsTheObservedEpoch) {
  auto eng = std::make_shared<Engine>();
  sql::Session s(eng);
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1)");

  Engine::Snapshot snap = eng->OpenSnapshot({"t"});
  EXPECT_GE(eng->snapshots_opened(), 1u);
}

TEST(EngineTest, RelationLocksLiveInTheCatalogEntry) {
  auto eng = std::make_shared<Engine>();
  sql::Session s(eng);
  // A statement naming an absent relation fails without leaving a lock.
  EXPECT_FALSE(s.Execute("SELECT * FROM nowhere").ok());
  EXPECT_FALSE(s.Execute("INSERT INTO nowhere VALUES (1)").ok());
  EXPECT_EQ(eng->db().relation_lock("nowhere"), nullptr);
  { Engine::Snapshot snap = eng->OpenSnapshot({"nowhere"}); }
  { Engine::WriteGuard guard = eng->LockWrite("nowhere"); }
  EXPECT_EQ(eng->db().relation_lock("nowhere"), nullptr);

  MustExec(s, "CREATE TABLE t (x INT)");
  EXPECT_NE(eng->db().relation_lock("t"), nullptr);
  MustExec(s, "DROP TABLE t");
  EXPECT_EQ(eng->db().relation_lock("t"), nullptr);
}

TEST(EngineTest, ViewColumnsLiveOnTheView) {
  auto eng = std::make_shared<Engine>();
  sql::Session s(eng);
  MustExec(s, "CREATE TABLE t (x INT, y INT)");
  MustExec(s, "CREATE VIEW v AS SELECT x AS a, y FROM t");
  {
    Engine::ExclusiveGuard lock = eng->LockExclusive();
    auto names = eng->GetViewColumns("v");
    ASSERT_TRUE(names.has_value());
    EXPECT_EQ(*names, (std::vector<std::string>{"a", "y"}));
  }
  MustExec(s, "DROP VIEW v");
  Engine::ExclusiveGuard lock = eng->LockExclusive();
  EXPECT_FALSE(eng->GetViewColumns("v").has_value());
}

// A view read locks the view and the tables it reads, not the engine:
// a snapshot held on an unrelated table does not hold it up.
TEST(EngineTest, ViewReadsDoNotWaitForOtherSnapshots) {
  auto eng = std::make_shared<Engine>();
  sql::Session s(eng);
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "CREATE TABLE other (y INT)");
  MustExec(s, "INSERT INTO t VALUES (1), (2), (3)");
  MustExec(s, "CREATE VIEW v AS SELECT x FROM t WHERE x >= 2");

  std::promise<void> held;
  std::promise<void> release;
  std::thread holder([&] {
    Engine::Snapshot snap = eng->OpenSnapshot({"other"});
    held.set_value();
    release.get_future().wait();
  });
  held.get_future().wait();
  auto reads = std::async(std::launch::async, [&] {
    sql::Session reader(eng);
    return std::make_pair(RowsAt(MustExec(reader, "SELECT * FROM v")),
                          RowsAt(MustExec(reader, "SELECT x FROM v "
                                                  "WHERE x >= 3")));
  });
  const bool finished =
      reads.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  holder.join();
  EXPECT_TRUE(finished) << "a view read waited for an unrelated snapshot";
  EXPECT_EQ(reads.get(), std::make_pair(size_t{2}, size_t{1}));
}

TEST(EngineTest, SessionsShareOneDatabase) {
  auto eng = std::make_shared<Engine>();
  sql::Session a(eng);
  sql::Session b(eng);
  MustExec(a, "CREATE TABLE t (x INT)");
  MustExec(a, "INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(RowsAt(MustExec(b, "SELECT * FROM t")), 3u);
}

TEST(EngineTest, PreparedStatementsAreSharedAcrossSessions) {
  auto eng = std::make_shared<Engine>();
  sql::Session a(eng);
  sql::Session b(eng);
  MustExec(a, "CREATE TABLE t (x INT)");
  MustExec(a, "INSERT INTO t VALUES (1), (2), (3)");
  MustExec(a, "PREPARE pt AS SELECT * FROM t WHERE x = $1");
  EXPECT_EQ(eng->prepared_count(), 1u);
  // Session b never prepared anything, yet can execute a's statement.
  EXPECT_EQ(RowsAt(MustExec(b, "EXECUTE pt (2)")), 1u);
}

TEST(EngineTest, DdlDropsPreparedStatementsReadingTheTable) {
  auto eng = std::make_shared<Engine>();
  sql::Session s(eng);
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "PREPARE pt AS SELECT * FROM t");
  ASSERT_EQ(eng->prepared_count(), 1u);
  MustExec(s, "DROP TABLE t");
  EXPECT_EQ(eng->prepared_count(), 0u);
}

TEST(EngineTest, StatementCacheIsSharedAcrossSessions) {
  auto eng = std::make_shared<Engine>();
  sql::Session a(eng);
  sql::Session b(eng);
  MustExec(a, "CREATE TABLE t (x INT)");
  MustExec(a, "INSERT INTO t VALUES (1), (2)");
  // a's normalized SELECT populates the shared skeleton cache; the same
  // shape from b must hit it.
  MustExec(a, "SELECT * FROM t WHERE x = 1");
  const uint64_t hits_before = eng->stmt_cache().hits();
  MustExec(b, "SELECT * FROM t WHERE x = 2");
  EXPECT_GT(eng->stmt_cache().hits(), hits_before);
}

TEST(EngineTest, ContendedWritersCountWriteWaits) {
  auto eng = std::make_shared<Engine>();
  sql::Session s(eng);
  MustExec(s, "CREATE TABLE t (x INT)");

  std::optional<Engine::Snapshot> snap = eng->OpenSnapshot({"t"});
  const uint64_t waits_before = eng->write_waits();
  std::thread writer([&] {
    Engine::WriteGuard guard = eng->LockWrite("t");  // blocks on the snapshot
  });
  // The writer's try_lock fails while the snapshot holds the reader
  // lock; the contended path bumps the counter before blocking.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (eng->write_waits() == waits_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(eng->write_waits(), waits_before);
  snap.reset();  // release the readers; the writer proceeds
  writer.join();
}

// Once an exclusive acquirer has waited Engine::kExclusiveGrace, a
// Snapshot requested after that queues behind it, so a stream of
// overlapping readers cannot starve ADVANCE TIME or DDL.
TEST(EngineTest, WaitingExclusiveLockGoesBeforeNewSnapshots) {
  auto eng = std::make_shared<Engine>();
  sql::Session s(eng);
  MustExec(s, "CREATE TABLE t (x INT)");

  std::optional<Engine::Snapshot> held = eng->OpenSnapshot({"t"});
  std::mutex order_mu;
  std::vector<std::string> order;
  auto note = [&](const char* who) {
    std::lock_guard<std::mutex> guard(order_mu);
    order.push_back(who);
  };
  std::thread exclusive([&] {
    Engine::ExclusiveGuard guard = eng->LockExclusive();
    note("exclusive");
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!eng->exclusive_waiting() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(eng->exclusive_waiting());
  // Past the grace, new shared acquirers queue.
  std::this_thread::sleep_for(10 * Engine::kExclusiveGrace);
  std::thread reader([&] {
    Engine::Snapshot snap = eng->OpenSnapshot({"t"});
    note("snapshot");
  });
  // With reader preference the new snapshot would join the held one at
  // once; here it waits for the exclusive acquirer.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> guard(order_mu);
    EXPECT_TRUE(order.empty());
  }
  held.reset();
  exclusive.join();
  reader.join();
  EXPECT_EQ(order, (std::vector<std::string>{"exclusive", "snapshot"}));
  EXPECT_FALSE(eng->exclusive_waiting());
}

TEST(SessionManagerTest, TracksLiveSessionsWeakly) {
  SessionManager manager(std::make_shared<Engine>());
  auto a = manager.OpenSession();
  auto b = manager.OpenSession();
  EXPECT_EQ(manager.active_sessions(), 2u);
  EXPECT_EQ(manager.opened_total(), 2u);

  MustExec(*a, "CREATE TABLE t (x INT)");
  MustExec(*b, "INSERT INTO t VALUES (7)");
  EXPECT_EQ(RowsAt(MustExec(*a, "SELECT * FROM t")), 1u);

  b.reset();  // dropping the shared_ptr retires the session
  EXPECT_EQ(manager.active_sessions(), 1u);
  EXPECT_EQ(manager.opened_total(), 2u);
}

}  // namespace
}  // namespace engine
}  // namespace expdb
