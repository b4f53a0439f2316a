// Expiration-partitioned storage (claim C14): scans skip expired data at
// segment granularity, and expiration drains whole segments in O(1) each.
//
// Three axes:
//
//   ScanExpired/(n, expired%, segmented)
//     A full scan of n tuples with the given fraction already expired at
//     scan time. Flat storage pays the per-tuple `texp > τ` check for
//     every stored tuple, dead or alive; segmented storage compares
//     segment bounds against τ once, copies fully-live segments without
//     per-tuple checks, and never touches fully-expired ones. The claim:
//     ≥2× at ≥50% expired, growing with the expired fraction.
//
//   ExpirationDrain/(n, survivors)
//     Physically remove every expired tuple from an n-tuple relation with
//     the given survivor count. Flat storage straddles (one segment holds
//     dead and live alike), so the drain swap-erases tuple by tuple and
//     re-derives bounds over survivors — O(n). Segmented storage drops
//     the fully-expired segments whole — O(segments + straddler width),
//     independent of how many survivors sit above the horizon.
//
//   ScanFiltered/(sel%, correlated, segmented)
//     σ_{a <= col <= b}(R) over 131 k live tuples, selecting 1% or 10%.
//     `col` is either `ts`, which arrives in order with its TTL (texp =
//     arrival + ttl, so every texp segment is a ts cluster), or `x`, a
//     random permutation that no segment's bounds narrow. Segmented
//     storage skips every segment whose column bounds the predicate
//     cannot match; flat storage has no column bounds and evaluates the
//     predicate on every tuple. The uncorrelated column prices the
//     per-segment check when it never skips.
//
//   DeleteOneRow/n
//     A SQL `DELETE FROM t WHERE v = c` that removes one of n live rows
//     of a segmented base table, TTLs uniform over [1, 2000] and v rising
//     with arrival (the ttl_churn writer's shape). The delete walks the
//     segments once — skipping those whose v bounds exclude c — and
//     records one delta batch. Each iteration puts the row back with the
//     timer paused.
//
// In the first two axes texps are uniform over [1, 1024], so with the
// default bucket geometry an expired fraction f turns into ~f of the
// segments being fully expired plus one straddler. See EXPERIMENTS.md C14
// and docs/PERFORMANCE.md §8.

#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/eval.h"
#include "relational/database.h"
#include "sql/session.h"

namespace {

using namespace expdb;

constexpr int64_t kHorizon = 1024;

Schema TwoInts() {
  return Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
}

/// n distinct tuples, texps uniform over [1, kHorizon].
Relation MakeRelation(int64_t n, bool segmented) {
  Relation r(TwoInts());
  if (segmented) r.SetSegmented();
  r.Reserve(static_cast<size_t>(n));
  Rng rng(7);
  for (int64_t i = 0; i < n; ++i) {
    r.InsertUnchecked(Tuple{i, i % 97},
                      Timestamp(rng.UniformInt(1, kHorizon)));
  }
  return r;
}

void BM_ScanExpired(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t expired_pct = state.range(1);
  const bool segmented = state.range(2) != 0;

  Database db;
  if (db.PutRelation("R", MakeRelation(n, segmented)).ok() && segmented) {
    // PutRelation registers flat storage; flip the stored copy.
    db.GetRelation("R").value()->SetSegmented();
  }
  const Timestamp tau(expired_pct * kHorizon / 100);
  const ExpressionPtr scan = algebra::Base("R");

  size_t live = 0;
  for (auto _ : state) {
    auto result = Evaluate(scan, db, tau);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    live = result->relation.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["live_tuples"] =
      benchmark::Counter(static_cast<double>(live));
  state.counters["stored_tuples_per_s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel((segmented ? "segmented, " : "flat,      ") +
                 std::to_string(expired_pct) + "% expired");
}

void BM_ExpirationDrain(benchmark::State& state) {
  const int64_t survivors = state.range(0);
  const bool segmented = state.range(1) != 0;
  // Fixed dead set, variable survivor count: the flat drain scales with
  // survivors (it rebuilds the lone segment around them); the segment
  // drain does not (survivor segments are never touched).
  const int64_t dead = 1 << 14;

  Relation templ(TwoInts());
  if (segmented) templ.SetSegmented();
  templ.Reserve(static_cast<size_t>(dead + survivors));
  Rng rng(11);
  for (int64_t i = 0; i < dead; ++i) {
    templ.InsertUnchecked(Tuple{i, 0},
                          Timestamp(rng.UniformInt(1, kHorizon)));
  }
  for (int64_t i = 0; i < survivors; ++i) {
    templ.InsertUnchecked(
        Tuple{dead + i, 1},
        Timestamp(kHorizon + rng.UniformInt(1, kHorizon)));
  }

  size_t removed = 0;
  std::optional<Relation> victim;
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh copy each round, built (and the previous round's survivors
    // torn down) off the clock: the timed region is the drain alone.
    victim.emplace(templ);
    state.ResumeTiming();
    removed = victim->DropExpired(Timestamp(kHorizon)).tuples;
    benchmark::DoNotOptimize(*victim);
  }
  state.counters["removed"] =
      benchmark::Counter(static_cast<double>(removed));
  state.SetLabel((segmented ? "segmented, " : "flat,      ") +
                 std::to_string(survivors) + " survivors");
}

void BM_ScanFiltered(benchmark::State& state) {
  const int64_t n = int64_t{1} << 17;
  const int64_t sel_pct = state.range(0);
  const bool correlated = state.range(1) != 0;
  const bool segmented = state.range(2) != 0;

  std::vector<int64_t> perm(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) perm[i] = i;
  Rng rng(13);
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.UniformInt(0, i)]);
  }
  Relation r(TwoInts());
  if (segmented) r.SetSegmented();
  r.Reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    // Arrival i with a fixed TTL: texp rises with ts = i.
    r.InsertUnchecked(Tuple{i, perm[i]},
                      Timestamp(kHorizon + i * kHorizon / n));
  }
  Database db;
  if (!db.PutRelation("R", std::move(r)).ok()) state.SkipWithError("put");
  if (segmented) db.GetRelation("R").value()->SetSegmented();

  const size_t col = correlated ? 0 : 1;
  const int64_t a = n / 3;
  const int64_t b = a + n * sel_pct / 100 - 1;
  const ExpressionPtr filtered = algebra::Select(
      algebra::Base("R"),
      Predicate::Compare(Operand::Column(col), ComparisonOp::kGe,
                         Operand::Constant(Value(a)))
          .And(Predicate::Compare(Operand::Column(col), ComparisonOp::kLe,
                                  Operand::Constant(Value(b)))));

  size_t out = 0;
  for (auto _ : state) {
    auto result = Evaluate(filtered, db, Timestamp::Zero());
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    out = result->relation.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows_out"] = benchmark::Counter(static_cast<double>(out));
  state.SetLabel(std::string(segmented ? "segmented, " : "flat,      ") +
                 (correlated ? "correlated ts, " : "uncorrelated x, ") +
                 std::to_string(sel_pct) + "% selected");
}

void BM_DeleteOneRow(benchmark::State& state) {
  const int64_t n = state.range(0);
  sql::Session s;
  if (!s.Execute("CREATE TABLE t (k INT, v INT)").ok()) {
    state.SkipWithError("create");
    return;
  }
  Relation* t = s.db().GetRelation("t").value();
  Rng rng(7);
  std::vector<Timestamp> texps;
  texps.reserve(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    texps.push_back(Timestamp(rng.UniformInt(1, 2000)));
    t->InsertUnchecked(Tuple{v % 997, v}, texps.back());
  }
  int64_t victim = 0;
  for (auto _ : state) {
    auto r = s.Execute("DELETE FROM t WHERE v = " + std::to_string(victim));
    if (!r.ok() || r->message.rfind("1 row ", 0) != 0) {
      state.SkipWithError("delete did not remove one row");
      return;
    }
    benchmark::DoNotOptimize(r);
    state.PauseTiming();
    t->InsertUnchecked(Tuple{victim % 997, victim},
                       texps[static_cast<size_t>(victim)]);
    victim = (victim + 7919) % n;
    state.ResumeTiming();
  }
  state.SetLabel("segmented, 1 of " + std::to_string(n) + " rows");
}

void ScanArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n : {int64_t{1} << 14, int64_t{1} << 17}) {
    for (int64_t pct : {0, 50, 90}) {
      for (int64_t segmented : {0, 1}) {
        b->Args({n, pct, segmented});
      }
    }
  }
}

void DrainArgs(benchmark::internal::Benchmark* b) {
  for (int64_t survivors :
       {int64_t{0}, int64_t{1} << 12, int64_t{1} << 14, int64_t{1} << 16}) {
    for (int64_t segmented : {0, 1}) {
      b->Args({survivors, segmented});
    }
  }
}

BENCHMARK(BM_ScanExpired)->Apply(ScanArgs)->ArgNames({"n", "pct", "seg"});
BENCHMARK(BM_ScanFiltered)
    ->ArgsProduct({{1, 10}, {1, 0}, {0, 1}})
    ->ArgNames({"sel", "corr", "seg"});
BENCHMARK(BM_ExpirationDrain)
    ->Apply(DrainArgs)
    ->ArgNames({"survivors", "seg"});
BENCHMARK(BM_DeleteOneRow)->Arg(16384)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
