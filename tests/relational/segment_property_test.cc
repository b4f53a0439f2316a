// Segmented storage is set-identical to flat storage.
//
// Expiration-partitioned storage reorganizes *where* entries live, never
// *what* the relation contains: under any interleaving of inserts (fresh,
// duplicate max-merge, overwrite), erases, time advances, and physical
// expiration (RemoveExpired and the segment bulk path DropExpired), a
// segmented relation and a flat relation fed the same operations hold the
// same set of (tuple, texp) pairs. And above storage, every operator of
// the expiration algebra — serial and morsel-parallel — produces
// identical results (tuples + per-tuple texps + texp(e)) over segmented
// and flat base relations. Swept over seeds, bucket widths, and segment
// caps; rides the CI TSan job with the rest of the suite.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "testing/workload.h"

namespace expdb {
namespace {

Schema TwoInts() {
  return Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
}

/// Both removal entry points run one walk: on tracked twins of `rel`,
/// DropExpired(τ, true) and RemoveExpired(τ, true) leave the same entries
/// (in the same segment order), segment bounds and single delete batch,
/// and RemoveExpired returns exactly that batch's tuples.
void ExpectTrackedDrainsAgree(const Relation& rel, Timestamp tau) {
  Relation dropped = rel;
  Relation removed = rel;
  dropped.EnableDeltaTracking();
  removed.EnableDeltaTracking();
  dropped.DropExpired(tau, /*record_delta=*/true);
  const std::vector<std::pair<Tuple, Timestamp>> out =
      removed.RemoveExpired(tau, /*record_delta=*/true);
  ASSERT_EQ(dropped.SegmentCount(), removed.SegmentCount());
  for (size_t i = 0; i < dropped.SegmentCount(); ++i) {
    const Relation::SegmentView a = dropped.GetSegment(i);
    const Relation::SegmentView b = removed.GetSegment(i);
    ASSERT_EQ(a.size, b.size) << "segment " << i;
    EXPECT_EQ(a.min_texp, b.min_texp) << "segment " << i;
    EXPECT_EQ(a.max_texp, b.max_texp) << "segment " << i;
    for (size_t j = 0; j < a.size; ++j) {
      EXPECT_EQ(a.data[j].tuple, b.data[j].tuple) << "segment " << i;
      EXPECT_EQ(a.data[j].texp, b.data[j].texp) << "segment " << i;
    }
  }
  ASSERT_EQ(dropped.delta_epoch(), removed.delta_epoch());
  const auto a = dropped.DeltasSince(0);
  const auto b = removed.DeltasSince(0);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_EQ(a->size(), out.empty() ? 0u : 1u);
  ASSERT_EQ(b->size(), a->size());
  if (out.empty()) return;
  const std::vector<Relation::Entry>& da = a->front().deleted;
  const std::vector<Relation::Entry>& db = b->front().deleted;
  ASSERT_EQ(da.size(), out.size());
  ASSERT_EQ(db.size(), out.size());
  for (size_t k = 0; k < out.size(); ++k) {
    EXPECT_EQ(da[k].tuple, out[k].first) << k;
    EXPECT_EQ(da[k].texp, out[k].second) << k;
    EXPECT_EQ(db[k].tuple, out[k].first) << k;
    EXPECT_EQ(db[k].texp, out[k].second) << k;
  }
}

/// Applies the same random operation stream to both relations and checks
/// exact (tuple, texp) identity after every step.
struct StorageSweepConfig {
  uint64_t seed;
  int64_t bucket_width;
  size_t max_segments;
  size_t ops;
};

class SegmentStorageSweep
    : public ::testing::TestWithParam<StorageSweepConfig> {};

TEST_P(SegmentStorageSweep, MirrorsFlatStorage) {
  const StorageSweepConfig& cfg = GetParam();
  Rng rng(cfg.seed);

  Relation seg(TwoInts());
  seg.SetSegmented({cfg.bucket_width, cfg.max_segments});
  Relation flat(TwoInts());

  Timestamp tau = Timestamp::Zero();
  auto random_tuple = [&] {
    return Tuple{rng.UniformInt(0, 12), rng.UniformInt(0, 12)};
  };
  auto random_texp = [&] {
    if (rng.UniformInt(0, 9) == 0) return Timestamp::Infinity();
    return tau + rng.UniformInt(1, 40);
  };

  auto check = [&](const std::string& what) {
    ASSERT_EQ(seg.size(), flat.size()) << what;
    ASSERT_EQ(seg.SortedEntries(), flat.SortedEntries()) << what;
    // Both bounds must be conservative (cover every stored texp), even
    // when they disagree in tightness.
    const Timestamp seg_bound = seg.texp_upper_bound();
    const Timestamp flat_bound = flat.texp_upper_bound();
    seg.ForEach([&](const Tuple&, Timestamp texp) {
      ASSERT_LE(texp, seg_bound) << what;
      ASSERT_LE(texp, flat_bound) << what;
    });
  };

  for (size_t op = 0; op < cfg.ops; ++op) {
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // max-merge insert (fresh or duplicate)
        const Tuple t = random_tuple();
        const Timestamp texp = random_texp();
        seg.MergeMaxUnchecked(t, texp);
        flat.MergeMaxUnchecked(t, texp);
        break;
      }
      case 4: {  // overwrite insert — can *lower* a texp (relocation down)
        const Tuple t = random_tuple();
        const Timestamp texp = random_texp();
        seg.InsertUnchecked(t, texp);
        flat.InsertUnchecked(t, texp);
        break;
      }
      case 5: {  // erase
        const Tuple t = random_tuple();
        ASSERT_EQ(seg.Erase(t), flat.Erase(t));
        break;
      }
      case 6: {  // advance time
        tau = tau + rng.UniformInt(1, 10);
        break;
      }
      case 7: {  // enumerating physical expiration
        ASSERT_EQ(seg.RemoveExpired(tau), flat.RemoveExpired(tau));
        break;
      }
      case 8: {  // bulk physical expiration
        ExpectTrackedDrainsAgree(seg, tau);
        const size_t expired = seg.size() - seg.CountUnexpiredAt(tau);
        ASSERT_EQ(seg.DropExpired(tau).tuples, expired);
        ASSERT_EQ(flat.DropExpired(tau).tuples, expired);
        break;
      }
      case 9: {  // point reads agree
        const Tuple t = random_tuple();
        ASSERT_EQ(seg.GetTexp(t), flat.GetTexp(t));
        ASSERT_EQ(seg.ContainsUnexpired(t, tau),
                  flat.ContainsUnexpired(t, tau));
        break;
      }
    }
    check("op #" + std::to_string(op) + " at tau=" + tau.ToString());
    ASSERT_EQ(seg.CountUnexpiredAt(tau), flat.CountUnexpiredAt(tau));
    ASSERT_EQ(seg.NextExpirationAfter(tau), flat.NextExpirationAfter(tau));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SegmentStorageSweep,
    ::testing::Values(
        StorageSweepConfig{201, 1, 2, 400},      // degenerate: tiny buckets
        StorageSweepConfig{202, 8, 64, 400},     // the engine default
        StorageSweepConfig{203, 3, 4, 400},      // frequent rebucketing
        StorageSweepConfig{204, 1000000, 64, 400},  // one fat finite bucket
        StorageSweepConfig{205, 8, 1, 600},      // cap 1: merge constantly
        StorageSweepConfig{206, 5, 8, 600}),
    [](const ::testing::TestParamInfo<StorageSweepConfig>& info) {
      return "seed" + std::to_string(info.param.seed) + "_w" +
             std::to_string(info.param.bucket_width) + "_cap" +
             std::to_string(info.param.max_segments);
    });

/// Operator-level identity: random algebra expressions evaluated over a
/// database with segmented bases and a flat clone of it, serial and
/// parallel, at several τ — including after physical expiration ran on
/// both.
struct OperatorSweepConfig {
  uint64_t seed;
  size_t num_tuples;
  size_t max_depth;
};

class SegmentOperatorSweep
    : public ::testing::TestWithParam<OperatorSweepConfig> {};

/// Rebuilds `db`'s relations as flat storage in `flat_db` (same names,
/// same contents).
void CloneFlat(const Database& db, Database* flat_db) {
  for (const std::string& name : db.RelationNames()) {
    const Relation* rel = db.GetRelation(name).value();
    std::vector<Relation::Entry> entries;
    entries.reserve(rel->size());
    rel->ForEach([&](const Tuple& t, Timestamp texp) {
      entries.push_back({t, texp});
    });
    ASSERT_TRUE(flat_db
                    ->PutRelation(name, Relation::FromEntriesUnchecked(
                                            rel->schema(), std::move(entries)))
                    .ok());
  }
}

TEST_P(SegmentOperatorSweep, AllOperatorsMatchFlatSerialAndParallel) {
  const OperatorSweepConfig& cfg = GetParam();
  Rng rng(cfg.seed);

  Database db;
  testing::RelationSpec rspec;
  rspec.num_tuples = cfg.num_tuples;
  rspec.arity = 2;
  rspec.value_domain = 8;
  rspec.ttl_min = 1;
  rspec.ttl_max = 40;
  rspec.infinite_fraction = 0.15;
  ASSERT_TRUE(testing::FillDatabase(&db, rng, rspec, 3).ok());
  // FillDatabase registers flat relations (PutRelation); switch the bases
  // to expiration-partitioned storage, as Database::CreateRelation does.
  for (const std::string& name : db.RelationNames()) {
    db.GetRelation(name).value()->SetSegmented();
    ASSERT_TRUE(db.GetRelation(name).value()->segmented()) << name;
  }

  Database flat_db;
  CloneFlat(db, &flat_db);

  testing::ExpressionSpec espec;
  espec.max_depth = cfg.max_depth;
  espec.allow_nonmonotonic = true;

  for (int trial = 0; trial < 10; ++trial) {
    // Halfway through, physically expire on both sides so later trials
    // exercise scans over bulk-dropped storage (stale index slots,
    // tightened bounds) — the expτ contents are untouched by this.
    if (trial == 5) {
      const Timestamp tau(20);
      for (const std::string& name : db.RelationNames()) {
        db.GetRelation(name).value()->DropExpired(tau);
        flat_db.GetRelation(name).value()->DropExpired(tau);
      }
    }
    ExpressionPtr e = testing::MakeRandomExpression(rng, db, espec);
    const Timestamp tau(rng.UniformInt(trial >= 5 ? 20 : 0, 45));

    for (size_t threads : {1u, 4u}) {
      EvalOptions opts;
      opts.parallelism = threads;
      opts.parallel_min_morsel = 1 + trial % 4;
      auto seg_result = Evaluate(e, db, tau, opts);
      auto flat_result = Evaluate(e, flat_db, tau, opts);
      ASSERT_TRUE(seg_result.ok()) << seg_result.status().ToString();
      ASSERT_TRUE(flat_result.ok()) << flat_result.status().ToString();

      const std::string context =
          "expression: " + e->ToString() + "\nthreads: " +
          std::to_string(threads) + ", tau: " + tau.ToString();
      EXPECT_EQ(seg_result->texp, flat_result->texp) << context;
      ASSERT_TRUE(Relation::EqualAt(seg_result->relation,
                                    flat_result->relation, tau))
          << context << "\nsegmented: " << seg_result->relation.ToString()
          << "\nflat:      " << flat_result->relation.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SegmentOperatorSweep,
    ::testing::Values(OperatorSweepConfig{301, 80, 3},
                      OperatorSweepConfig{302, 150, 4},
                      OperatorSweepConfig{303, 40, 5},
                      OperatorSweepConfig{304, 300, 3}),
    [](const ::testing::TestParamInfo<OperatorSweepConfig>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.num_tuples) + "_d" +
             std::to_string(info.param.max_depth);
    });

}  // namespace
}  // namespace expdb
