// Claim C12 — the expiration-stamped result cache turns warm repeats
// into lookups.
//
// Scenarios (EXPERIMENTS.md C12, docs/PERFORMANCE.md §7):
//   * SelectUncached vs SelectWarmCache — the same selective point query
//     through the full SQL path with the result cache off vs warm; the
//     >=10x warm-hit claim.
//   * ExecutePreparedWarm — EXECUTE on a prepared statement, warm cache:
//     no parsing of the query text, no planning, no execution.
//   * SelectPatchedHit — one insert + one delete between lookups, so
//     every SELECT is served by delta-patching the cached entry rather
//     than recomputing.
//
// The result cache admits a statement on its second execution, so each
// warm scenario runs its statement twice before timing: the first run is
// rejected (first sighting), the second fills the entry, and every timed
// iteration hits from the first.
//   * SelectColdPlans vs SelectSharedSkeleton — tier 1 in isolation
//     (result cache off): re-planning every statement vs rotating
//     literals through one cached skeleton.
//   * CountPatchedHit vs CountUncached, GroupCountPatchedHit vs
//     GroupCountUncached — an 8-row INSERT (untimed) before every timed
//     COUNT(*): one group over the whole table, or ~8 k groups. The
//     patch touches one group and moves one row per touched group
//     through the aggregate (its plan is per-group), so it must cost less
//     than the recomputation beside it.
//   * PatchedHitRingDepth/16 and /4096 — a cached point query patched
//     after 16 one-row INSERTs (untimed), with the table's delta ring
//     holding 16 or 4 096 batches when the lookup runs. Fifteen rows miss
//     the filter; the sixteenth re-inserts one matching row with a later
//     texp, so the result keeps its size. A patch reads only the batches
//     after its cursor, so both depths must cost the same.
//   * ConcurrentWarmHits/0 and /1 at 1, 2 and 4 threads — each thread
//     has its own Session over one shared Engine and SELECTs one of 16
//     cached point queries on an 8 k-row table. /0 hits unpatched; /1
//     inserts or deletes one row of the queried value (under the write
//     lock) before each SELECT, so every hit is patched first. Shows
//     whether concurrent cache hits run in parallel or queue.

#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "engine/engine.h"
#include "sql/session.h"

namespace {

using namespace expdb;  // NOLINT

constexpr const char* kPointQuery = "SELECT * FROM t WHERE v = 3";

void Must(const Result<sql::ExecResult>& r, benchmark::State& state) {
  if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
}

/// t(k INT, v INT): n rows, v uniform over `groups` values, expirations
/// far in the future (the cache is exercised, never lapsed, during the
/// run).
void FillTable(sql::Session& s, int64_t n, benchmark::State& state,
               int64_t groups = 97) {
  Must(s.Execute("CREATE TABLE t (k INT, v INT)"), state);
  Relation* r = s.db().GetRelation("t").value();
  for (int64_t i = 0; i < n; ++i) {
    if (!r->Insert(Tuple{i, i % groups}, Timestamp(1000000 + i)).ok()) {
      state.SkipWithError("fill failed");
      return;
    }
  }
}

void BM_SelectUncached(benchmark::State& state) {
  sql::Session s;
  FillTable(s, state.range(0), state);
  Must(s.Execute("SET result_cache_bytes = 0"), state);
  for (auto _ : state) {
    auto r = s.Execute(kPointQuery);
    Must(r, state);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("plan + execute per call");
}
BENCHMARK(BM_SelectUncached)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_SelectWarmCache(benchmark::State& state) {
  sql::Session s;
  FillTable(s, state.range(0), state);
  Must(s.Execute(kPointQuery), state);  // plan; first sighting
  Must(s.Execute(kPointQuery), state);  // fill the result cache
  for (auto _ : state) {
    auto r = s.Execute(kPointQuery);
    Must(r, state);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("warm result-cache hit");
}
BENCHMARK(BM_SelectWarmCache)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_ExecutePreparedWarm(benchmark::State& state) {
  sql::Session s;
  FillTable(s, state.range(0), state);
  Must(s.Execute("PREPARE q AS SELECT * FROM t WHERE v = $1"), state);
  Must(s.Execute("EXECUTE q (3)"), state);  // first sighting
  Must(s.Execute("EXECUTE q (3)"), state);  // fill
  for (auto _ : state) {
    auto r = s.Execute("EXECUTE q (3)");
    Must(r, state);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("prepared, warm hit");
}
BENCHMARK(BM_ExecutePreparedWarm)->Arg(8192);

void BM_SelectPatchedHit(benchmark::State& state) {
  sql::Session s;
  FillTable(s, state.range(0), state);
  Must(s.Execute(kPointQuery), state);  // first sighting
  Must(s.Execute(kPointQuery), state);  // fill
  for (auto _ : state) {
    Must(s.Execute("INSERT INTO t VALUES (999999999, 3)"), state);
    auto in = s.Execute(kPointQuery);  // patched in
    Must(in, state);
    Must(s.Execute("DELETE FROM t WHERE k = 999999999"), state);
    auto out = s.Execute(kPointQuery);  // patched out
    Must(out, state);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel("2 patches + 2 mutations per iteration");
}
BENCHMARK(BM_SelectPatchedHit)->Arg(8192);

void BM_SelectColdPlans(benchmark::State& state) {
  sql::Session s;
  FillTable(s, state.range(0), state);
  Must(s.Execute("SET result_cache_bytes = 0"), state);
  for (auto _ : state) {
    Must(s.Execute("CACHE CLEAR"), state);  // forces a fresh plan
    auto r = s.Execute(kPointQuery);
    Must(r, state);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("re-planned every call");
}
BENCHMARK(BM_SelectColdPlans)->Arg(512);

void BM_SelectSharedSkeleton(benchmark::State& state) {
  sql::Session s;
  FillTable(s, state.range(0), state);
  Must(s.Execute("SET result_cache_bytes = 0"), state);
  Must(s.Execute(kPointQuery), state);  // plan the skeleton once
  int64_t v = 0;
  for (auto _ : state) {
    // Rotating literals: every statement is a tier-1 hit (one skeleton),
    // never a tier-2 hit (different arguments).
    auto r = s.Execute("SELECT * FROM t WHERE v = " + std::to_string(v));
    v = (v + 1) % 97;
    Must(r, state);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("one skeleton, rotating literals");
}
BENCHMARK(BM_SelectSharedSkeleton)->Arg(512);

constexpr const char* kCount = "SELECT COUNT(*) FROM t";
constexpr const char* kGroupCount = "SELECT v, COUNT(*) FROM t GROUP BY v";
constexpr int64_t kGroups = 8192;

/// Times `query` after an untimed 8-row INSERT per iteration; with
/// `cached` the result cache is filled first, so every timed run is a
/// patched hit, else it is off and every run recomputes.
void CountAfterInserts(benchmark::State& state, const char* query,
                       int64_t groups, bool cached) {
  sql::Session s;
  FillTable(s, state.range(0), state, groups);
  if (cached) {
    Must(s.Execute(query), state);  // first sighting
    Must(s.Execute(query), state);  // fill
  } else {
    Must(s.Execute("SET result_cache_bytes = 0"), state);
  }
  int64_t next = 1000000000;
  for (auto _ : state) {
    state.PauseTiming();
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 8; ++i, ++next) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(next) + ", " +
                std::to_string(next % groups) + ")";
    }
    Must(s.Execute(insert), state);
    state.ResumeTiming();
    auto r = s.Execute(query);
    Must(r, state);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(cached ? "patched hit after an 8-row INSERT"
                        : "recomputed after an 8-row INSERT");
}

void BM_CountPatchedHit(benchmark::State& state) {
  CountAfterInserts(state, kCount, 97, /*cached=*/true);
}
BENCHMARK(BM_CountPatchedHit)->Arg(16384)->Arg(65536);

void BM_CountUncached(benchmark::State& state) {
  CountAfterInserts(state, kCount, 97, /*cached=*/false);
}
BENCHMARK(BM_CountUncached)->Arg(16384)->Arg(65536);

void BM_GroupCountPatchedHit(benchmark::State& state) {
  CountAfterInserts(state, kGroupCount, kGroups, /*cached=*/true);
}
BENCHMARK(BM_GroupCountPatchedHit)->Arg(16384);

void BM_GroupCountUncached(benchmark::State& state) {
  CountAfterInserts(state, kGroupCount, kGroups, /*cached=*/false);
}
BENCHMARK(BM_GroupCountUncached)->Arg(16384);

void BM_PatchedHitRingDepth(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  sql::Session s;
  // Built here rather than by CREATE TABLE so the ring's capacity is the
  // depth: the 8 192-row fill leaves it full, and every INSERT below keeps
  // it full.
  auto created = s.db().CreateRelation(
      "t", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}));
  if (!created.ok()) {
    state.SkipWithError(created.status().ToString().c_str());
    return;
  }
  Relation* r = created.value();
  r->EnableDeltaTracking(depth);
  for (int64_t i = 0; i < 8192; ++i) {
    if (!r->Insert(Tuple{i, i % 97}, Timestamp(1000000 + i)).ok()) {
      state.SkipWithError("fill failed");
      return;
    }
  }
  Must(s.Execute(kPointQuery), state);  // first sighting
  Must(s.Execute(kPointQuery), state);  // fill
  const uint64_t patches_before = s.engine().result_cache().stats().patches;
  int64_t next = 1000000000;
  int64_t ttl = 2000000;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 15; ++i, ++next) {
      const int64_t v = 4 + next % 93;  // never the queried 3
      Must(s.Execute("INSERT INTO t VALUES (" + std::to_string(next) + ", " +
                     std::to_string(v) + ")"),
           state);
    }
    Must(s.Execute("INSERT INTO t VALUES (999999999, 3) TTL " +
                   std::to_string(++ttl)),
         state);
    state.ResumeTiming();
    auto hit = s.Execute(kPointQuery);
    Must(hit, state);
    benchmark::DoNotOptimize(hit);
  }
  const uint64_t patches =
      s.engine().result_cache().stats().patches - patches_before;
  if (patches != static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("a lookup was not a patched hit");
  }
  state.SetLabel("patched hit after 16 one-row INSERTs");
}
BENCHMARK(BM_PatchedHitRingDepth)->Arg(16)->Arg(4096);

constexpr int64_t kWarmQueries = 16;

std::string WarmQuery(int64_t v) {
  return "SELECT * FROM t WHERE v = " + std::to_string(v);
}

/// The engine every ConcurrentWarmHits thread shares; built by Setup
/// before the threads start, released by Teardown after they join.
std::shared_ptr<engine::Engine> g_warm_engine;

void SetupWarmEngine(const benchmark::State&) {
  g_warm_engine = std::make_shared<engine::Engine>();
  sql::Session s(g_warm_engine);
  (void)s.Execute("CREATE TABLE t (k INT, v INT)");
  Relation* r = s.db().GetRelation("t").value();
  for (int64_t i = 0; i < 8192; ++i) {
    (void)r->Insert(Tuple{i, i % 97}, Timestamp(1000000 + i));
  }
  for (int64_t v = 0; v < kWarmQueries; ++v) {
    (void)s.Execute(WarmQuery(v));  // first sighting
    (void)s.Execute(WarmQuery(v));  // fill
  }
}

void TeardownWarmEngine(const benchmark::State&) { g_warm_engine.reset(); }

void BM_ConcurrentWarmHits(benchmark::State& state) {
  const bool patched = state.range(0) == 1;
  sql::Session s(g_warm_engine);
  std::vector<std::string> queries;
  for (int64_t v = 0; v < kWarmQueries; ++v) queries.push_back(WarmQuery(v));
  // Each thread owns one row key, so its inserts and deletes alternate.
  const int64_t own_key = 1000000 + state.thread_index();
  int64_t i = state.thread_index();
  for (auto _ : state) {
    const int64_t v = i++ % kWarmQueries;
    if (patched) {
      engine::Engine::WriteGuard g = g_warm_engine->LockWrite("t");
      Relation* r = g_warm_engine->db().GetRelation("t").value();
      const Tuple row{own_key, v};
      if (!r->Erase(row)) (void)r->Insert(row, Timestamp::Infinity());
    }
    auto hit = s.Execute(queries[static_cast<size_t>(v)]);
    Must(hit, state);
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(patched ? "patched after a write" : "unpatched");
}
BENCHMARK(BM_ConcurrentWarmHits)
    ->Arg(0)
    ->Arg(1)
    ->Setup(SetupWarmEngine)
    ->Teardown(TeardownWarmEngine)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
