// Parallel evaluation is set-identical to serial evaluation.
//
// Results of the expiration algebra are sets, so the morsel-parallel
// engine (EvalOptions::parallelism > 1) must produce exactly the same
// MaterializedResult as the serial path — same tuples, same per-tuple
// expiration times, same texp(e), same validity intervals — for every
// operator, both aggregate replay flavors, and difference roots with
// their Theorem 3 helper queues. Swept over random databases and
// expression shapes with parallel_min_morsel forced low so the parallel
// code paths run even on test-sized inputs.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "testing/workload.h"

namespace expdb {
namespace {

/// Sorted (tuple, texp) snapshot of a relation — the canonical form for
/// exact set comparison.
std::vector<Relation::Entry> SortedEntries(const Relation& r) {
  std::vector<Relation::Entry> out = r.entries();
  std::sort(out.begin(), out.end(),
            [](const Relation::Entry& a, const Relation::Entry& b) {
              if (!(a.tuple == b.tuple)) return a.tuple < b.tuple;
              return a.texp < b.texp;
            });
  return out;
}

void ExpectIdentical(const MaterializedResult& serial,
                     const MaterializedResult& parallel,
                     const std::string& context) {
  EXPECT_EQ(serial.texp, parallel.texp) << context;
  EXPECT_EQ(serial.materialized_at, parallel.materialized_at) << context;
  EXPECT_EQ(serial.validity, parallel.validity) << context;
  ASSERT_EQ(serial.relation.size(), parallel.relation.size()) << context;
  const auto lhs = SortedEntries(serial.relation);
  const auto rhs = SortedEntries(parallel.relation);
  for (size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_TRUE(lhs[i].tuple == rhs[i].tuple)
        << context << "\ntuple #" << i << ": " << lhs[i].tuple.ToString()
        << " vs " << rhs[i].tuple.ToString();
    ASSERT_EQ(lhs[i].texp, rhs[i].texp)
        << context << "\ntexp of " << lhs[i].tuple.ToString();
  }
}

struct Config {
  uint64_t seed;
  size_t num_tuples;
  size_t max_depth;
  int64_t value_domain;
  AggregateExpirationMode mode;
  bool compute_validity;
};

class ParallelEvalPropertyTest : public ::testing::TestWithParam<Config> {};

TEST_P(ParallelEvalPropertyTest, MatchesSerial) {
  const Config& cfg = GetParam();
  Rng rng(cfg.seed);

  Database db;
  testing::RelationSpec rspec;
  rspec.num_tuples = cfg.num_tuples;
  rspec.arity = 2;
  rspec.value_domain = cfg.value_domain;
  rspec.ttl_min = 1;
  rspec.ttl_max = 30;
  rspec.infinite_fraction = 0.1;
  ASSERT_TRUE(testing::FillDatabase(&db, rng, rspec, 3).ok());

  testing::ExpressionSpec espec;
  espec.max_depth = cfg.max_depth;
  espec.allow_nonmonotonic = true;

  EvalOptions serial_opts;
  serial_opts.aggregate_mode = cfg.mode;
  serial_opts.compute_validity = cfg.compute_validity;
  serial_opts.parallelism = 1;

  for (int trial = 0; trial < 8; ++trial) {
    ExpressionPtr e = testing::MakeRandomExpression(rng, db, espec);
    const Timestamp tau(rng.UniformInt(0, 5));
    auto serial = Evaluate(e, db, tau, serial_opts);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString() << "\n"
                             << e->ToString();

    for (size_t threads : {2u, 4u, 8u}) {
      EvalOptions par_opts = serial_opts;
      par_opts.parallelism = threads;
      // Force the parallel code paths despite test-sized inputs.
      par_opts.parallel_min_morsel = 1 + trial % 4;
      auto parallel = Evaluate(e, db, tau, par_opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectIdentical(*serial, *parallel,
                      "expression: " + e->ToString() + "\nthreads: " +
                          std::to_string(threads) + ", tau: " +
                          std::to_string(tau.ticks()));
    }
  }
}

TEST_P(ParallelEvalPropertyTest, DifferenceRootMatchesSerial) {
  const Config& cfg = GetParam();
  Rng rng(cfg.seed * 977 + 5);

  Database db;
  testing::RelationSpec rspec;
  rspec.num_tuples = cfg.num_tuples;
  rspec.arity = 2;
  // A small domain forces common tuples, hence criticals in the helper.
  rspec.value_domain = std::min<int64_t>(cfg.value_domain, 6);
  rspec.ttl_min = 1;
  rspec.ttl_max = 30;
  rspec.infinite_fraction = 0.1;
  ASSERT_TRUE(testing::FillDatabase(&db, rng, rspec, 3).ok());

  EvalOptions serial_opts;
  serial_opts.aggregate_mode = cfg.mode;
  serial_opts.compute_validity = cfg.compute_validity;
  serial_opts.parallelism = 1;

  // FillDatabase relations share a schema, so these are union-compatible.
  const std::vector<ExpressionPtr> roots = {
      Expression::MakeDifference(Expression::MakeBase("R0"),
                                 Expression::MakeBase("R1")),
      Expression::MakeDifference(
          Expression::MakeUnion(Expression::MakeBase("R0"),
                                Expression::MakeBase("R1")),
          Expression::MakeBase("R2")),
      Expression::MakeDifference(
          Expression::MakeBase("R2"),
          Expression::MakeIntersect(Expression::MakeBase("R0"),
                                    Expression::MakeBase("R1"))),
  };

  for (const ExpressionPtr& e : roots) {
    const Timestamp tau(rng.UniformInt(0, 5));
    auto serial = EvaluateDifferenceRoot(e, db, tau, serial_opts);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    for (size_t threads : {2u, 4u, 8u}) {
      EvalOptions par_opts = serial_opts;
      par_opts.parallelism = threads;
      par_opts.parallel_min_morsel = 1;
      auto parallel = EvaluateDifferenceRoot(e, db, tau, par_opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

      const std::string context =
          "difference root: " + e->ToString() + "\nthreads: " +
          std::to_string(threads);
      ExpectIdentical(serial->result, parallel->result, context);
      EXPECT_EQ(serial->common_count, parallel->common_count) << context;
      EXPECT_EQ(serial->children_texp, parallel->children_texp) << context;
      // Helper queues are sorted by (appears_at, tuple) — exact equality.
      ASSERT_EQ(serial->helper.size(), parallel->helper.size()) << context;
      for (size_t i = 0; i < serial->helper.size(); ++i) {
        EXPECT_TRUE(serial->helper[i] == parallel->helper[i])
            << context << "\nhelper entry #" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelEvalPropertyTest,
    ::testing::Values(
        Config{101, 60, 3, 6, AggregateExpirationMode::kConservative, false},
        Config{102, 60, 3, 6, AggregateExpirationMode::kContributingSet,
               false},
        Config{103, 60, 3, 6, AggregateExpirationMode::kExact, true},
        Config{104, 120, 4, 4, AggregateExpirationMode::kContributingSet,
               true},
        Config{105, 120, 4, 4, AggregateExpirationMode::kExact, false},
        Config{106, 40, 5, 3, AggregateExpirationMode::kContributingSet,
               true},
        Config{107, 250, 3, 12, AggregateExpirationMode::kContributingSet,
               false},
        Config{108, 250, 3, 12, AggregateExpirationMode::kConservative,
               true},
        Config{109, 500, 2, 25, AggregateExpirationMode::kExact, false},
        Config{110, 90, 4, 5, AggregateExpirationMode::kExact, true},
        // A domain of 3: π and ∪ collide on most rows.
        Config{111, 300, 3, 3, AggregateExpirationMode::kExact, false},
        Config{112, 300, 4, 3, AggregateExpirationMode::kConservative,
               true}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             std::string(AggregateExpirationModeToString(info.param.mode)
                             .substr(0, 4)) +
             "_n" + std::to_string(info.param.num_tuples) +
             (info.param.compute_validity ? "_validity" : "");
    });

}  // namespace
}  // namespace expdb
