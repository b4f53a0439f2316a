// Experiment C4 (paper Sec. 3.2): eager versus lazy physical removal.
//
// Expected shape: both policies drain through the same texp-bucketed
// segments (whole expired segments drop in O(1)), so lazy removal wins
// on raw advance throughput only by batching the straddling-segment work
// into fewer passes; eager wins on trigger latency (triggers fire the
// instant a tuple expires) and keeps relations physically smaller
// between compactions.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "expiration/expiration_queue.h"

namespace {

using namespace expdb;

Schema TwoInt() {
  return Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
}

/// Insert n tuples with uniform TTLs, then advance tick-by-tick through
/// the full horizon so every tuple expires. `tracked` enables delta
/// tracking on the relation, as every SQL table has, so each eager drain
/// also records its removed tuples as one delete batch.
void RunChurn(benchmark::State& state, RemovalPolicy policy,
              bool tracked = false) {
  const int64_t n = state.range(0);
  const int64_t horizon = 128;
  for (auto _ : state) {
    state.PauseTiming();
    ExpirationManagerOptions opts;
    opts.policy = policy;
    opts.lazy_compaction_threshold = 0.5;
    ExpirationManager em(opts);
    (void)em.CreateRelation("t", TwoInt());
    if (tracked) em.db().GetRelation("t").value()->EnableDeltaTracking();
    Rng rng(7);
    state.ResumeTiming();

    for (int64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          em.Insert("t", Tuple{i, rng.UniformInt(0, 99)},
                    Timestamp(1 + rng.UniformInt(0, horizon - 2))));
    }
    for (int64_t t = 1; t < horizon; ++t) {
      benchmark::DoNotOptimize(em.AdvanceTo(Timestamp(t)));
    }
    if (policy == RemovalPolicy::kLazy) em.Compact();

    state.PauseTiming();
    state.counters["removed"] =
        benchmark::Counter(static_cast<double>(em.stats().removed));
    state.counters["segments_dropped"] =
        benchmark::Counter(static_cast<double>(em.stats().segments_dropped));
    state.counters["compactions"] =
        benchmark::Counter(static_cast<double>(em.stats().compactions));
    state.ResumeTiming();
  }
  state.counters["tuples_per_s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(std::string(RemovalPolicyToString(policy)) +
                 (tracked ? " tracked" : ""));
}

void BM_ChurnEager(benchmark::State& state) {
  RunChurn(state, RemovalPolicy::kEager);
}
void BM_ChurnEagerTracked(benchmark::State& state) {
  RunChurn(state, RemovalPolicy::kEager, /*tracked=*/true);
}
void BM_ChurnLazy(benchmark::State& state) {
  RunChurn(state, RemovalPolicy::kLazy);
}

BENCHMARK(BM_ChurnEager)
    ->Range(1 << 10, 1 << 17)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ChurnEagerTracked)
    ->Range(1 << 10, 1 << 17)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ChurnLazy)->Range(1 << 10, 1 << 17)->Unit(benchmark::kMillisecond);

/// Trigger latency: how many ticks after the true expiration instant the
/// trigger observes the removal (0 under eager; up to the compaction
/// delay under lazy).
void RunTriggerLatency(benchmark::State& state, RemovalPolicy policy,
                       double threshold) {
  const int64_t n = state.range(0);
  const int64_t horizon = 256;
  double total_latency = 0;
  uint64_t fired = 0;
  for (auto _ : state) {
    ExpirationManagerOptions opts;
    opts.policy = policy;
    opts.lazy_compaction_threshold = threshold;
    ExpirationManager em(opts);
    (void)em.CreateRelation("t", TwoInt());
    em.AddTrigger([&](const ExpirationEvent& e) {
      total_latency +=
          static_cast<double>(e.removed_at.ticks() - e.texp.ticks());
      ++fired;
    });
    Rng rng(11);
    for (int64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          em.Insert("t", Tuple{i, 0},
                    Timestamp(1 + rng.UniformInt(0, horizon - 2))));
    }
    for (int64_t t = 1; t < horizon; ++t) {
      benchmark::DoNotOptimize(em.AdvanceTo(Timestamp(t)));
    }
    em.Compact();
  }
  state.counters["mean_trigger_delay_ticks"] = benchmark::Counter(
      fired == 0 ? 0.0 : total_latency / static_cast<double>(fired));
  state.SetLabel(std::string(RemovalPolicyToString(policy)));
}

void BM_TriggerLatencyEager(benchmark::State& state) {
  RunTriggerLatency(state, RemovalPolicy::kEager, 0.5);
}
void BM_TriggerLatencyLazy(benchmark::State& state) {
  RunTriggerLatency(state, RemovalPolicy::kLazy, 0.5);
}

BENCHMARK(BM_TriggerLatencyEager)->Arg(1 << 13)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TriggerLatencyLazy)->Arg(1 << 13)->Unit(benchmark::kMillisecond);

/// Scan throughput as the physically-stored expired fraction grows (the
/// price lazy removal pays on reads).
void BM_ScanWithExpiredFraction(benchmark::State& state) {
  const int64_t n = 1 << 16;
  const double expired_fraction = static_cast<double>(state.range(0)) / 100.0;
  Relation rel(TwoInt());
  Rng rng(13);
  const int64_t n_expired = static_cast<int64_t>(n * expired_fraction);
  for (int64_t i = 0; i < n; ++i) {
    // Expired tuples get texp <= 50; live ones texp > 50.
    Timestamp texp = i < n_expired ? Timestamp(1 + rng.UniformInt(0, 49))
                                   : Timestamp(51 + rng.UniformInt(0, 49));
    (void)rel.Insert(Tuple{i, 0}, texp);
  }
  const Timestamp now(50);
  for (auto _ : state) {
    size_t live = 0;
    rel.ForEachUnexpired(now, [&](const Tuple&, Timestamp) { ++live; });
    benchmark::DoNotOptimize(live);
  }
  state.counters["expired_pct"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.counters["tuples_per_s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_ScanWithExpiredFraction)
    ->Arg(0)
    ->Arg(25)
    ->Arg(50)
    ->Arg(75)
    ->Arg(90)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
