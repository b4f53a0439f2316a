#include "relational/database.h"

#include <gtest/gtest.h>

namespace expdb {
namespace {

Schema OneInt() { return Schema({{"x", ValueType::kInt64}}); }

TEST(DatabaseTest, CreateAndGet) {
  Database db;
  auto rel = db.CreateRelation("t", OneInt());
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(db.HasRelation("t"));
  EXPECT_EQ(db.GetRelation("t").value(), rel.value());
  EXPECT_EQ(db.relation_count(), 1u);
}

TEST(DatabaseTest, CreateRejectsDuplicatesAndEmptyNames) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("t", OneInt()).ok());
  EXPECT_EQ(db.CreateRelation("t", OneInt()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.CreateRelation("", OneInt()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, GetMissingIsNotFound) {
  Database db;
  EXPECT_EQ(db.GetRelation("nope").status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, PutRelationTransfersContents) {
  Database db;
  Relation r(OneInt());
  ASSERT_TRUE(r.Insert(Tuple{7}, Timestamp(10)).ok());
  ASSERT_TRUE(db.PutRelation("t", std::move(r)).ok());
  EXPECT_EQ(db.GetRelation("t").value()->size(), 1u);
  EXPECT_EQ(db.PutRelation("t", Relation(OneInt())).code(),
            StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, DropRelation) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("t", OneInt()).ok());
  ASSERT_TRUE(db.DropRelation("t").ok());
  EXPECT_FALSE(db.HasRelation("t"));
  EXPECT_EQ(db.DropRelation("t").code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, RelationNamesSorted) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("zeta", OneInt()).ok());
  ASSERT_TRUE(db.CreateRelation("alpha", OneInt()).ok());
  EXPECT_EQ(db.RelationNames(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(DatabaseTest, PointersStableAcrossCatalogGrowth) {
  Database db;
  Relation* first = db.CreateRelation("a", OneInt()).value();
  ASSERT_TRUE(first->Insert(Tuple{1}, Timestamp(5)).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.CreateRelation("r" + std::to_string(i), OneInt()).ok());
  }
  EXPECT_EQ(first->size(), 1u);  // handle still valid
  EXPECT_EQ(db.GetRelation("a").value(), first);
}

}  // namespace
}  // namespace expdb
