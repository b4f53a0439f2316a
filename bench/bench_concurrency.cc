// Concurrent-engine benchmark — read scaling across threads, with and
// without the background MaintenanceService (EXPERIMENTS.md "Concurrent
// engine"; docs/CONCURRENCY.md).
//
// Scenarios:
//   * SnapshotReadScaling — N threads, each with its own sql::Session
//     over one shared engine, running the same selective point query
//     (result cache off, so every read does real scan work under its
//     snapshot's shared locks). Reader scaling 1 -> 2 -> 4 threads.
//   * WarmCacheReadScaling — the same with the shared result cache
//     warm: reads collapse to cache lookups, so this axis measures the
//     locking overhead itself rather than scan work.
//   * WarmCacheReadScalingPerThreadKey — warm hits again, but each
//     thread on its own key: no entry is shared between threads.
//   * ReadScalingWithMaintenance — SnapshotReadScaling while the
//     MaintenanceService takes the engine exclusively every millisecond;
//     the delta against SnapshotReadScaling is the cost of background
//     housekeeping to foreground readers.
//
// NOTE on expectations: aggregate throughput can only exceed the
// single-thread number when the host has more than one core. CI
// containers with a single CPU show flat (or slightly degraded)
// scaling; that is the scheduler, not the locks — see EXPERIMENTS.md.

#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "engine/engine.h"
#include "engine/maintenance.h"
#include "sql/session.h"

namespace {

using namespace expdb;  // NOLINT

constexpr const char* kPointQuery = "SELECT * FROM t WHERE v = 3";
constexpr int64_t kRows = 8192;

void Must(const Result<sql::ExecResult>& r, benchmark::State& state) {
  if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
}

/// An engine with t(k INT, v INT): kRows rows, v uniform over 97
/// values, expirations far in the future.
std::shared_ptr<engine::Engine> SetupEngine(bool result_cache,
                                            bool maintenance) {
  auto eng = std::make_shared<engine::Engine>();
  sql::Session s(eng);
  (void)s.Execute("CREATE TABLE t (k INT, v INT)");
  Relation* r = s.db().GetRelation("t").value();
  for (int64_t i = 0; i < kRows; ++i) {
    (void)r->Insert(Tuple{i, i % 97}, Timestamp(1000000 + i));
  }
  if (!result_cache) (void)s.Execute("SET result_cache_bytes = 0");
  if (maintenance) (void)s.Execute("SET maintenance_interval_ms = 1");
  return eng;
}

/// One engine per scenario, created on first use (magic-static, so
/// every benchmark thread sees a fully built engine).
const std::shared_ptr<engine::Engine>& ScanEngine() {
  static std::shared_ptr<engine::Engine> eng = SetupEngine(false, false);
  return eng;
}
const std::shared_ptr<engine::Engine>& CachedEngine() {
  static std::shared_ptr<engine::Engine> eng = SetupEngine(true, false);
  return eng;
}
const std::shared_ptr<engine::Engine>& MaintainedEngine() {
  static std::shared_ptr<engine::Engine> eng = SetupEngine(false, true);
  return eng;
}

/// Each benchmark thread opens its own Session over the shared engine
/// and hammers the point query; items/s aggregates across threads.
void RunReads(const std::shared_ptr<engine::Engine>& eng,
              benchmark::State& state) {
  sql::Session s(eng);
  for (auto _ : state) {
    auto r = s.Execute(kPointQuery);
    Must(r, state);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SnapshotReadScaling(benchmark::State& state) {
  RunReads(ScanEngine(), state);
  state.SetLabel("result cache off; full scan per read");
}
BENCHMARK(BM_SnapshotReadScaling)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

void BM_WarmCacheReadScaling(benchmark::State& state) {
  RunReads(CachedEngine(), state);
  state.SetLabel("warm shared result cache; lock overhead axis");
}
BENCHMARK(BM_WarmCacheReadScaling)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

/// Warm hits with one key per thread: each thread reads its own cached
/// statement, so no two threads share an entry's mutex. What still
/// serializes is what every hit shares: the cache-wide lock and LRU touch
/// and the engine and relation locks a Snapshot takes. Against
/// BM_WarmCacheReadScaling (every thread on one key) this separates
/// same-entry contention from the shared-path cost.
void BM_WarmCacheReadScalingPerThreadKey(benchmark::State& state) {
  sql::Session s(CachedEngine());
  const std::string query =
      "SELECT * FROM t WHERE v = " + std::to_string(3 + state.thread_index());
  for (auto _ : state) {
    auto r = s.Execute(query);
    Must(r, state);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("warm shared result cache; one key per thread");
}
BENCHMARK(BM_WarmCacheReadScalingPerThreadKey)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

void BM_ReadScalingWithMaintenance(benchmark::State& state) {
  RunReads(MaintainedEngine(), state);
  state.SetLabel("1ms background maintenance cadence");
}
BENCHMARK(BM_ReadScalingWithMaintenance)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

/// The cost of one synchronous maintenance pass over an engine with
/// nothing expired: the floor every background cadence pays.
void BM_MaintenancePassEmpty(benchmark::State& state) {
  const std::shared_ptr<engine::Engine>& eng = ScanEngine();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng->maintenance().RunOnce());
  }
}
BENCHMARK(BM_MaintenancePassEmpty);

}  // namespace

BENCHMARK_MAIN();
