#include "expiration/clock.h"

#include <gtest/gtest.h>

namespace expdb {
namespace {

TEST(LogicalClockTest, StartsAtZeroByDefault) {
  LogicalClock clock;
  EXPECT_EQ(clock.Now(), Timestamp::Zero());
}

TEST(LogicalClockTest, StartsAtGivenTime) {
  LogicalClock clock(Timestamp(42));
  EXPECT_EQ(clock.Now(), Timestamp(42));
}

TEST(LogicalClockTest, AdvanceAccumulates) {
  LogicalClock clock;
  ASSERT_TRUE(clock.Advance(5).ok());
  ASSERT_TRUE(clock.Advance(3).ok());
  EXPECT_EQ(clock.Now(), Timestamp(8));
  ASSERT_TRUE(clock.Advance(0).ok());  // no-op allowed
  EXPECT_EQ(clock.Now(), Timestamp(8));
}

TEST(LogicalClockTest, RejectsNegativeAdvance) {
  LogicalClock clock;
  EXPECT_EQ(clock.Advance(-1).code(), StatusCode::kInvalidArgument);
}

TEST(LogicalClockTest, AdvanceToAbsolute) {
  LogicalClock clock;
  ASSERT_TRUE(clock.AdvanceTo(Timestamp(10)).ok());
  EXPECT_EQ(clock.Now(), Timestamp(10));
  ASSERT_TRUE(clock.AdvanceTo(Timestamp(10)).ok());  // same time ok
}

TEST(LogicalClockTest, TimeNeverFlowsBackwards) {
  LogicalClock clock(Timestamp(10));
  EXPECT_EQ(clock.AdvanceTo(Timestamp(9)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(clock.Now(), Timestamp(10));
}

TEST(LogicalClockTest, CannotReachInfinity) {
  LogicalClock clock;
  EXPECT_EQ(clock.AdvanceTo(Timestamp::Infinity()).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace expdb
