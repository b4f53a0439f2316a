#include "relational/database.h"

#include <set>
#include <string>
#include <vector>

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

// A view's relation is readable under its name through the const
// lookup only; the table-side catalog does not see it, and a table and a
// view never share a name.
TEST(DatabaseTest, AttachedViewsAreReadOnlyEntries) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("t", OneInt()).ok());
  Relation materialized(OneInt());
  ASSERT_TRUE(db.AttachView("v", &materialized, {"t"}).ok());
  const Database& cdb = db;
  EXPECT_EQ(cdb.GetRelation("v").value(), &materialized);
  EXPECT_EQ(db.GetRelation("v").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.RelationNames(), (std::vector<std::string>{"t"}));
  EXPECT_EQ(db.relation_lock("v"), nullptr);
  ASSERT_NE(db.FindView("v"), nullptr);
  EXPECT_EQ(db.FindView("v")->bases, (std::set<std::string>{"t"}));
  EXPECT_EQ(db.FindView("t"), nullptr);

  EXPECT_EQ(db.CreateRelation("v", OneInt()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.PutRelation("v", Relation(OneInt())).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.AttachView("t", &materialized, {}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.AttachView("v", &materialized, {}).code(),
            StatusCode::kAlreadyExists);

  db.DetachView("v");
  EXPECT_EQ(cdb.GetRelation("v").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(db.CreateRelation("v", OneInt()).ok());
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
