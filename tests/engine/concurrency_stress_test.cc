// Multi-threaded engine stress tests (docs/CONCURRENCY.md).
//
// The correctness argument: this workload's writes are commutative
// (distinct-value inserts into shared tables), so whatever interleaving
// the scheduler picks, the final database state must be *set-identical*
// to a serial replay of the same statements. Readers run concurrently
// and assert internal consistency of every result they see; a DDL
// thread creates and drops scratch tables to exercise the exclusive
// path against live snapshots.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
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

/// The unexpired x-values of a `SELECT x FROM ...` result, sorted.
std::vector<int64_t> SortedValues(const sql::ExecResult& r) {
  std::vector<int64_t> out;
  if (!r.relation.has_value()) return out;
  for (const auto& entry : r.relation->entries()) {
    if (entry.texp > r.served_at) out.push_back(entry.tuple[0].AsInt64());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// 8 threads — 4 writers, 2 readers, 1 DDL churner, 1 maintenance-style
// meta thread — against one engine; the final state must equal a serial
// replay of the writers' statements.
TEST(ConcurrencyStressTest, MixedWorkloadMatchesSerialReplay) {
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 64;

  auto eng = std::make_shared<Engine>();
  SessionManager manager(eng);
  {
    auto setup = manager.OpenSession();
    MustExec(*setup, "CREATE TABLE t (x INT)");
  }

  // Each writer's statement list, also replayed serially afterwards. Every
  // eighth insert is followed by a DELETE of two of the writer's own
  // earlier values, so the writes still commute while readers snapshot and
  // the result cache patches across the delete batches.
  constexpr int kDeleteEvery = 8;
  std::vector<std::vector<std::string>> scripts(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kOpsPerWriter; ++i) {
      scripts[w].push_back("INSERT INTO t VALUES (" +
                           std::to_string(w * 1000 + i) + ")");
      if (i % kDeleteEvery == kDeleteEvery - 1) {
        scripts[w].push_back(
            "DELETE FROM t WHERE x >= " + std::to_string(w * 1000 + i - 3) +
            " AND x <= " + std::to_string(w * 1000 + i - 2));
      }
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto s = manager.OpenSession();
      for (const std::string& stmt : scripts[w]) MustExec(*s, stmt);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      auto s = manager.OpenSession();
      while (!stop.load(std::memory_order_acquire)) {
        // Any point-in-time read is fine; it must just never fail and
        // never contain a duplicate (all inserted values are distinct).
        auto res = MustExec(*s, "SELECT x FROM t");
        std::vector<int64_t> values = SortedValues(res);
        EXPECT_TRUE(std::adjacent_find(values.begin(), values.end()) ==
                    values.end());
      }
    });
  }
  threads.emplace_back([&] {  // DDL churn: exclusive lock vs snapshots
    auto s = manager.OpenSession();
    for (int i = 0; !stop.load(std::memory_order_acquire) && i < 64; ++i) {
      const std::string name = "scratch_" + std::to_string(i);
      MustExec(*s, "CREATE TABLE " + name + " (y INT)");
      MustExec(*s, "INSERT INTO " + name + " VALUES (1)");
      MustExec(*s, "SELECT * FROM " + name);
      MustExec(*s, "DROP TABLE " + name);
    }
  });
  threads.emplace_back([&] {  // meta thread: status reads + manual passes
    auto s = manager.OpenSession();
    while (!stop.load(std::memory_order_acquire)) {
      MustExec(*s, "MAINTENANCE STATUS");
      MustExec(*s, "MAINTENANCE RUN");
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // Serial replay into a fresh private engine.
  sql::Session serial;
  MustExec(serial, "CREATE TABLE t (x INT)");
  for (const auto& script : scripts) {
    for (const std::string& stmt : script) MustExec(serial, stmt);
  }

  auto concurrent_session = manager.OpenSession();
  std::vector<int64_t> concurrent =
      SortedValues(MustExec(*concurrent_session, "SELECT x FROM t"));
  std::vector<int64_t> replayed =
      SortedValues(MustExec(serial, "SELECT x FROM t"));
  ASSERT_EQ(concurrent.size(),
            static_cast<size_t>(kWriters * kOpsPerWriter * 3 / 4));
  EXPECT_EQ(concurrent, replayed);
}

// Regression for torn reads through the shared result cache: one writer
// appends 1..N in order while readers repeatedly SELECT through the
// cache. Every observed result must be an exact prefix {1..k} — a
// result assembled half-before/half-after an insert, or a cache entry
// filled from a torn scan, would break the prefix property.
TEST(ConcurrencyStressTest, ResultCacheNeverServesTornReads) {
  constexpr int64_t kRows = 256;

  auto eng = std::make_shared<Engine>();
  SessionManager manager(eng);
  {
    auto setup = manager.OpenSession();
    MustExec(*setup, "CREATE TABLE t (x INT)");
    MustExec(*setup, "SET result_cache_bytes = 1048576");
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      auto s = manager.OpenSession();
      while (!done.load(std::memory_order_acquire)) {
        std::vector<int64_t> values =
            SortedValues(MustExec(*s, "SELECT x FROM t"));
        // Prefix property: k values seen => they are exactly 1..k.
        const auto k = static_cast<int64_t>(values.size());
        const int64_t sum =
            std::accumulate(values.begin(), values.end(), int64_t{0});
        EXPECT_EQ(sum, k * (k + 1) / 2)
            << "torn read: " << k << " rows whose sum is " << sum;
        if (k > 0) {
          EXPECT_EQ(values.back(), k);
        }
      }
    });
  }

  {
    auto writer = manager.OpenSession();
    for (int64_t i = 1; i <= kRows; ++i) {
      MustExec(*writer, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  auto check = manager.OpenSession();
  EXPECT_EQ(SortedValues(MustExec(*check, "SELECT x FROM t")).size(),
            static_cast<size_t>(kRows));
}

// One name dropped and recreated while other sessions keep using it: each
// incarnation of `c` brings its own lock and takes it away again. Writers
// and readers of `c`, and a reader of a name that never exists, may only
// ever fail with NotFound, and nothing may crash or hang.
TEST(ConcurrencyStressTest, DropAndRecreateUnderLoad) {
  // The churn runs at least kCycles drop/create pairs and until the other
  // sessions have run kStatements statements between them.
  constexpr int kCycles = 100;
  constexpr int kStatements = 1000;

  auto eng = std::make_shared<Engine>();
  SessionManager manager(eng);
  {
    auto setup = manager.OpenSession();
    MustExec(*setup, "CREATE TABLE c (x INT)");
    MustExec(*setup, "CREATE VIEW vc AS SELECT x FROM c");
  }

  std::atomic<bool> stop{false};
  std::atomic<int> statements{0};
  std::atomic<int> not_found{0};
  auto run = [&](const std::string& stmt) {
    auto s = manager.OpenSession();
    while (!stop.load(std::memory_order_acquire)) {
      auto r = s->Execute(stmt);
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
            << stmt << " -> " << r.status().ToString();
        not_found.fetch_add(1, std::memory_order_relaxed);
      }
      statements.fetch_add(1, std::memory_order_relaxed);
      // The engine lock prefers readers (docs/CONCURRENCY.md): a short
      // pause lets the churner's exclusive DDL in between statements.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back(run, "INSERT INTO c VALUES (" + std::to_string(w) +
                                  ")");
  }
  for (int r = 0; r < 2; ++r) threads.emplace_back(run, "SELECT * FROM c");
  threads.emplace_back(run, "SELECT * FROM never_created");
  // Both view read paths: the canonical read and a view in a query.
  threads.emplace_back(run, "SELECT * FROM vc");
  threads.emplace_back(run, "SELECT x FROM vc WHERE x >= 1");

  {
    auto churn = manager.OpenSession();
    for (int i = 0; i < kCycles || statements.load() < kStatements; ++i) {
      MustExec(*churn, "DROP VIEW vc");
      MustExec(*churn, "DROP TABLE c");
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      MustExec(*churn, "CREATE TABLE c (x INT)");
      MustExec(*churn, "CREATE VIEW vc AS SELECT x FROM c");
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_GT(not_found.load(), 0);  // the absent name always fails
  EXPECT_EQ(eng->db().relation_lock("never_created"), nullptr);
  auto check = manager.OpenSession();
  const sql::ExecResult last = MustExec(*check, "SELECT * FROM c");
  ASSERT_TRUE(last.relation.has_value());
  EXPECT_LE(last.relation->size(), 2u);
  const sql::ExecResult view = MustExec(*check, "SELECT x FROM vc WHERE x >= 0");
  ASSERT_TRUE(view.relation.has_value());
  EXPECT_TRUE(Relation::EqualAt(*view.relation, *last.relation, view.served_at));
}

}  // namespace
}  // namespace engine
}  // namespace expdb
