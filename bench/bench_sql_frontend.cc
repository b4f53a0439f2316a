// Claim C16 — the statement front end allocates nothing per token.
//
// Scenarios (EXPERIMENTS.md C16, docs/PERFORMANCE.md "Statement front
// end"): sql::ParseStatement on the statement shapes the end-to-end
// benchmark (perfbench/) sends most often.
//   * SelectGrp / SelectRange  — the two hot_cache SELECT shapes.
//   * ExecuteQa / ExecuteQb    — their EXECUTE forms.
//   * InsertTtl                — the 1-row hot_cache INSERT ... TTL.
//   * JoinSelect               — the scan_read join SELECT.
//   * Insert512                — a 512-row scan_read set-up INSERT.
// Items/s counts input bytes, so the rows compare as bytes per second.

#include <string>

#include <benchmark/benchmark.h>

#include "sql/parser.h"

namespace {

using namespace expdb;  // NOLINT

std::string Insert512() {
  std::string sql = "INSERT INTO readings VALUES ";
  for (int i = 0; i < 512; ++i) {
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(i % 64) + ", " + std::to_string(100000 + i) +
           ", " + std::to_string((i * 7919) % 1000) + ")";
  }
  return sql + " TTL 1000042";
}

void BM_Parse(benchmark::State& state, const std::string& sql) {
  for (auto _ : state) {
    auto r = sql::ParseStatement(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sql.size()));
}

BENCHMARK_CAPTURE(BM_Parse, SelectGrp,
                  std::string("SELECT k, v FROM hot WHERE grp = 17"));
BENCHMARK_CAPTURE(
    BM_Parse, SelectRange,
    std::string("SELECT k, grp FROM hot WHERE v >= 412 AND v < 422"));
BENCHMARK_CAPTURE(BM_Parse, ExecuteQa, std::string("EXECUTE qa (17)"));
BENCHMARK_CAPTURE(BM_Parse, ExecuteQb, std::string("EXECUTE qb (412, 422)"));
BENCHMARK_CAPTURE(
    BM_Parse, InsertTtl,
    std::string("INSERT INTO hot VALUES (100000123, 17, 512) TTL 40"));
BENCHMARK_CAPTURE(
    BM_Parse, JoinSelect,
    std::string("SELECT r.ts, r.val, s.region FROM readings r, sensors s "
                "WHERE r.sensor = s.sensor AND r.ts >= 123456 AND "
                "r.ts <= 124479"));
BENCHMARK_CAPTURE(BM_Parse, Insert512, Insert512());

}  // namespace

BENCHMARK_MAIN();
