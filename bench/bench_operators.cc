// Operator microbenchmarks: throughput of every algebra operator, with
// finite expiration times ("expiring") versus the all-∞ degenerate case
// ("textbook"). The gap between the two is the cost of expiration
// awareness — per the paper's design it should be a small constant factor
// (an extra min/max per emitted tuple plus the expτ filter).

#include <benchmark/benchmark.h>

#include "core/eval.h"
#include "testing/workload.h"

namespace {

using namespace expdb;

/// Builds a two-relation database; `expiring` controls finite TTLs.
Database MakeDb(int64_t n, bool expiring, uint64_t seed) {
  Rng rng(seed);
  Database db;
  testing::RelationSpec spec;
  spec.num_tuples = static_cast<size_t>(n);
  spec.arity = 2;
  spec.value_domain = std::max<int64_t>(4, n / 8);
  spec.ttl_min = 1;
  spec.ttl_max = 100;
  spec.infinite_fraction = expiring ? 0.0 : 1.0;
  (void)testing::FillDatabase(&db, rng, spec, 2);
  return db;
}

void RunExpr(benchmark::State& state, const ExpressionPtr& expr) {
  const int64_t n = state.range(0);
  const bool expiring = state.range(1) != 0;
  Database db = MakeDb(n, expiring, 42);
  size_t out_tuples = 0;
  // Evaluate at time 0: every tuple is live in both variants, so the
  // measured delta is purely the expiration bookkeeping (texp min/max
  // propagation), not a smaller input.
  for (auto _ : state) {
    auto result = Evaluate(expr, db, Timestamp(0));
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    out_tuples = result->relation.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["out_tuples"] =
      benchmark::Counter(static_cast<double>(out_tuples));
  state.counters["tuples_per_s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(expiring ? "expiring" : "textbook");
}

void BM_Select(benchmark::State& state) {
  RunExpr(state,
          algebra::Select(algebra::Base("R0"),
                          Predicate::Compare(Operand::Column(1),
                                             ComparisonOp::kGe,
                                             Operand::Constant(Value(2)))));
}

void BM_Project(benchmark::State& state) {
  RunExpr(state, algebra::Project(algebra::Base("R0"), {1}));
}

void BM_HashJoin(benchmark::State& state) {
  RunExpr(state, algebra::Join(algebra::Base("R0"), algebra::Base("R1"),
                               Predicate::ColumnsEqual(0, 2)));
}

void BM_Union(benchmark::State& state) {
  RunExpr(state, algebra::Union(algebra::Base("R0"), algebra::Base("R1")));
}

void BM_Intersect(benchmark::State& state) {
  RunExpr(state,
          algebra::Intersect(algebra::Base("R0"), algebra::Base("R1")));
}

void BM_Difference(benchmark::State& state) {
  RunExpr(state,
          algebra::Difference(algebra::Base("R0"), algebra::Base("R1")));
}

void BM_AggregateCount(benchmark::State& state) {
  RunExpr(state, algebra::Aggregate(algebra::Base("R0"), {0},
                                    AggregateFunction::Count()));
}

void BM_AggregateSum(benchmark::State& state) {
  RunExpr(state, algebra::Aggregate(algebra::Base("R0"), {0},
                                    AggregateFunction::Sum(1)));
}

void BM_SemiJoin(benchmark::State& state) {
  RunExpr(state, algebra::SemiJoin(algebra::Base("R0"), algebra::Base("R1"),
                                   Predicate::ColumnsEqual(0, 2)));
}

void BM_AntiJoin(benchmark::State& state) {
  RunExpr(state, algebra::AntiJoin(algebra::Base("R0"), algebra::Base("R1"),
                                   Predicate::ColumnsEqual(0, 2)));
}

/// π over ⋈ whose projection produces duplicates (every R0 tuple that
/// shares a key and meets the same R1 tuple projects onto one row) — the
/// join shape of perfbench's scan_read: the max-merge kernel's case.
void BM_ProjectOverJoin(benchmark::State& state) {
  RunExpr(state, algebra::Project(
                     algebra::Join(algebra::Base("R0"), algebra::Base("R1"),
                                   Predicate::ColumnsEqual(0, 2)),
                     {0, 3}));
}

/// φ grouped by both columns: about one group per tuple, so the group
/// table grows with the input.
void BM_AggregateManyGroups(benchmark::State& state) {
  RunExpr(state, algebra::Aggregate(algebra::Base("R0"), {0, 1},
                                    AggregateFunction::Count()));
}

void Args(benchmark::internal::Benchmark* b) {
  for (int64_t n : {1 << 10, 1 << 13, 1 << 16}) {
    b->Args({n, 0});
    b->Args({n, 1});
  }
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_Select)->Apply(Args);
BENCHMARK(BM_Project)->Apply(Args);
BENCHMARK(BM_HashJoin)->Apply(Args);
BENCHMARK(BM_Union)->Apply(Args);
BENCHMARK(BM_Intersect)->Apply(Args);
BENCHMARK(BM_Difference)->Apply(Args);
BENCHMARK(BM_AggregateCount)->Apply(Args);
BENCHMARK(BM_AggregateSum)->Apply(Args);
BENCHMARK(BM_SemiJoin)->Apply(Args);
BENCHMARK(BM_AntiJoin)->Apply(Args);
BENCHMARK(BM_ProjectOverJoin)->Apply(Args);
BENCHMARK(BM_AggregateManyGroups)->Apply(Args);

}  // namespace

BENCHMARK_MAIN();
