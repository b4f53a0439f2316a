// Relation::DeltasSince lends a range of the delta ring, found by epoch
// arithmetic. Checked here against a model ring built independently of
// the relation's own log: after every mutation the model diffs the
// relation's contents before and after, and records what changed as one
// batch (deleted old entries, inserted new ones, each ordered by
// (texp, tuple)), trims its oldest batches while it holds more entries
// than the capacity (never the newest batch), or breaks its history on Clear
// and attribute renames. The reference for each cursor is the old linear
// filter over the model ring — every batch with epoch > since — or
// nullopt when the cursor is older than the retained window or newer
// than the clock.
//
// Seeded streams mix Insert (fresh, max-merged, already expired), texp
// updates (InsertUnchecked, up and down), Erase, RemoveExpired with and
// without `record_delta`, EraseWhere, and rare Clears and renames, over
// ring capacities {1, 4, 64}; after every step every cursor in
// [0, epoch + 1] is tried.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/predicate.h"
#include "relational/relation.h"

namespace expdb {
namespace {

using Entries = std::vector<Relation::Entry>;

Schema TwoCols() {
  return Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
}

bool ByTexpThenTuple(const Relation::Entry& x, const Relation::Entry& y) {
  if (x.texp != y.texp) return x.texp < y.texp;
  return x.tuple < y.tuple;
}

std::map<Tuple, Timestamp> Contents(const Relation& r) {
  std::map<Tuple, Timestamp> out;
  for (const auto& [tuple, texp] : r.SortedEntries()) out.emplace(tuple, texp);
  return out;
}

/// The ring the relation should hold, derived from observed changes.
struct ModelRing {
  explicit ModelRing(size_t cap) : capacity(cap) {}

  size_t capacity;  // in entries
  size_t entries = 0;
  size_t trims = 0;
  uint64_t epoch = 0;
  uint64_t floor = 0;
  std::deque<Relation::DeltaBatch> batches;

  /// Records the change from `before` to `after` as one batch; an
  /// unchanged relation records nothing.
  void Record(const std::map<Tuple, Timestamp>& before,
              const std::map<Tuple, Timestamp>& after) {
    Relation::DeltaBatch b;
    for (const auto& [tuple, texp] : before) {
      auto it = after.find(tuple);
      if (it == after.end() || it->second != texp) {
        b.deleted.push_back({tuple, texp});
      }
    }
    for (const auto& [tuple, texp] : after) {
      auto it = before.find(tuple);
      if (it == before.end() || it->second != texp) {
        b.inserted.push_back({tuple, texp});
      }
    }
    if (b.deleted.empty() && b.inserted.empty()) return;
    std::sort(b.deleted.begin(), b.deleted.end(), ByTexpThenTuple);
    std::sort(b.inserted.begin(), b.inserted.end(), ByTexpThenTuple);
    b.epoch = ++epoch;
    entries += b.deleted.size() + b.inserted.size();
    batches.push_back(std::move(b));
    while (batches.size() > 1 && entries > capacity) {
      const Relation::DeltaBatch& oldest = batches.front();
      entries -= oldest.deleted.size() + oldest.inserted.size();
      floor = oldest.epoch;
      batches.pop_front();
      ++trims;
    }
  }

  void Break() {
    batches.clear();
    entries = 0;
    floor = ++epoch;
  }

  /// The copying linear filter DeltasSince used to be.
  std::optional<std::vector<Relation::DeltaBatch>> Since(
      uint64_t since) const {
    if (since > epoch || since < floor) return std::nullopt;
    std::vector<Relation::DeltaBatch> out;
    for (const Relation::DeltaBatch& b : batches) {
      if (b.epoch > since) out.push_back(b);
    }
    return out;
  }
};

void ExpectSameEntries(const Entries& want, const Entries& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].tuple, got[i].tuple) << what << ", entry " << i;
    EXPECT_EQ(want[i].texp, got[i].texp) << what << ", entry " << i;
  }
}

/// Every cursor in [0, epoch + 1] against the model.
void ExpectEveryCursorMatches(const Relation& r, const ModelRing& model,
                              const std::string& what) {
  ASSERT_EQ(r.delta_epoch(), model.epoch) << what;
  for (uint64_t since = 0; since <= model.epoch + 1; ++since) {
    const std::string at = what + ", since " + std::to_string(since);
    const auto want = model.Since(since);
    const auto got = r.DeltasSince(since);
    ASSERT_EQ(want.has_value(), got.has_value()) << at;
    if (!want.has_value()) continue;
    ASSERT_EQ(want->size(), got->size()) << at;
    ASSERT_EQ(got->size(), model.epoch - since) << at;
    if (!got->empty()) {
      EXPECT_EQ(got->front().epoch, since + 1) << at;
    }
    size_t i = 0;
    for (const Relation::DeltaBatch& b : *got) {
      const Relation::DeltaBatch& w = (*want)[i];
      const std::string batch = at + ", batch " + std::to_string(i);
      ASSERT_EQ(w.epoch, b.epoch) << batch;
      EXPECT_EQ(&b, &(*got)[i]) << batch;
      ExpectSameEntries(w.deleted, b.deleted, batch + " deleted");
      ExpectSameEntries(w.inserted, b.inserted, batch + " inserted");
      ++i;
    }
  }
}

/// Runs one seeded stream of `steps` mutations against a relation with a
/// ring of `capacity` entries; returns how many batches the ring trimmed.
size_t RunStream(uint64_t seed, size_t capacity, bool segmented, int steps) {
  Rng rng(seed);
  Relation r(TwoCols());
  if (segmented) r.SetSegmented({/*bucket_width=*/4, 16});
  r.EnableDeltaTracking(capacity);
  ModelRing model(capacity);
  int64_t now = 0;
  int renames = 0;

  auto random_row = [&] {
    return Tuple{rng.UniformInt(0, 19), rng.UniformInt(0, 3)};
  };
  auto random_texp = [&] {
    return rng.Bernoulli(0.1) ? Timestamp::Infinity()
                              : Timestamp(now + rng.UniformInt(0, 40));
  };

  for (int step = 0; step < steps; ++step) {
    const auto before = Contents(r);
    // History breaks are rare, so the 64-entry ring overflows too.
    const int64_t roll = rng.Bernoulli(0.01) ? rng.UniformInt(90, 99)
                                             : rng.UniformInt(0, 89);
    std::string op;
    bool breaks = false;
    bool records = true;
    if (roll < 30) {
      op = "Insert";
      EXPECT_TRUE(r.Insert(random_row(), random_texp()).ok());
    } else if (roll < 45) {
      op = "texp update";
      r.InsertUnchecked(random_row(), random_texp());
    } else if (roll < 65) {
      op = "Erase";
      r.Erase(random_row());
    } else if (roll < 75) {
      now += rng.UniformInt(0, 8);
      records = rng.Bernoulli(0.5);
      op = std::string("RemoveExpired(record_delta=") +
           (records ? "true" : "false") + ")";
      r.RemoveExpired(Timestamp(now), records);
    } else if (roll < 85) {
      op = "EraseWhere";
      const Predicate pred = Predicate::Compare(
          Operand::Column(0), ComparisonOp::kLt,
          Operand::Constant(Value(rng.UniformInt(0, 8))));
      r.EraseWhere(&pred, Timestamp(now));
    } else if (roll < 90) {
      op = "Insert of an already expired row";
      EXPECT_TRUE(
          r.Insert(random_row(), Timestamp(now - rng.UniformInt(0, 3))).ok());
    } else if (roll < 95) {
      op = "Clear";
      breaks = true;
      r.Clear();
    } else {
      op = "RenameAttributes";
      breaks = true;
      const std::string suffix = std::to_string(++renames);
      EXPECT_TRUE(r.RenameAttributes({"a" + suffix, "b" + suffix}).ok());
    }
    if (breaks) {
      model.Break();
    } else if (records) {
      model.Record(before, Contents(r));
    }
    ExpectEveryCursorMatches(
        r, model,
        "seed " + std::to_string(seed) + ", capacity " +
            std::to_string(capacity) + (segmented ? ", segmented" : ", flat") +
            ", step " + std::to_string(step) + " (" + op + ")");
    if (::testing::Test::HasFailure()) break;
  }
  return model.trims;
}

TEST(DeltaRangeTest, MatchesLinearFilterOverModelRing) {
  for (size_t capacity : {size_t{1}, size_t{4}, size_t{64}}) {
    size_t trims = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      for (bool segmented : {true, false}) {
        trims += RunStream(seed * 1009 + capacity, capacity, segmented, 400);
        if (HasFailure()) return;
      }
    }
    // Every capacity really overflowed, so cursors below the floor were
    // tried against a trimmed ring.
    EXPECT_GT(trims, 0u) << "capacity " << capacity;
  }
}

TEST(DeltaRangeTest, UntrackedRelationHasNoHistory) {
  Relation r(TwoCols());
  ASSERT_TRUE(r.Insert(Tuple{1, 1}).ok());
  EXPECT_FALSE(r.DeltasSince(0).has_value());
}

TEST(DeltaRangeTest, RangeIsBorrowedNotCopied) {
  Relation r(TwoCols());
  r.EnableDeltaTracking(8);
  for (int64_t i = 0; i < 5; ++i) ASSERT_TRUE(r.Insert(Tuple{i, 0}).ok());
  const auto all = r.DeltasSince(0);
  const auto tail = r.DeltasSince(3);
  ASSERT_TRUE(all.has_value() && tail.has_value());
  ASSERT_EQ(all->size(), 5u);
  ASSERT_EQ(tail->size(), 2u);
  // Both ranges point into the one ring.
  EXPECT_EQ(&(*tail)[0], &(*all)[3]);
  EXPECT_EQ(&tail->front(), &(*all)[3]);
  EXPECT_EQ(tail->front().epoch, 4u);
  EXPECT_TRUE(r.DeltasSince(5)->empty());
  EXPECT_FALSE(r.DeltasSince(6).has_value());
}

// ApplyChange is one change however many rows it touches: one epoch whose
// batch holds exactly the given entries.
TEST(DeltaRangeTest, ApplyChangeRecordsOneBatch) {
  Relation r(TwoCols());
  ASSERT_TRUE(r.Insert(Tuple{1, 0}, Timestamp(5)).ok());
  ASSERT_TRUE(r.Insert(Tuple{2, 0}, Timestamp(6)).ok());
  r.EnableDeltaTracking();
  r.ApplyChange({{Tuple{1, 0}, Timestamp(5)}, {Tuple{2, 0}, Timestamp(6)}},
                {{Tuple{2, 0}, Timestamp(9)}, {Tuple{3, 0}, Timestamp(7)}});
  EXPECT_EQ(Contents(r), (std::map<Tuple, Timestamp>{
                             {Tuple{2, 0}, Timestamp(9)},
                             {Tuple{3, 0}, Timestamp(7)}}));
  const auto batches = r.DeltasSince(0);
  ASSERT_TRUE(batches.has_value());
  ASSERT_EQ(batches->size(), 1u);
  EXPECT_EQ(batches->front().deleted.size(), 2u);
  EXPECT_EQ(batches->front().inserted.size(), 2u);
  r.ApplyChange({}, {});  // nothing changed: no epoch
  EXPECT_EQ(r.delta_epoch(), 1u);
}

}  // namespace
}  // namespace expdb
