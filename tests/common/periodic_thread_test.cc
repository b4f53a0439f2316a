#include "common/periodic_thread.h"

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

namespace expdb {
namespace {

/// Waits up to 30s for `ticks` to reach `n`.
bool WaitForTicks(const std::atomic<int>& ticks, int n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ticks.load() < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return ticks.load() >= n;
}

TEST(PeriodicThreadTest, TicksUntilStopped) {
  std::atomic<int> ticks{0};
  PeriodicThread runner(1, [&] { ticks.fetch_add(1); });
  EXPECT_FALSE(runner.running());
  runner.Start();
  runner.Start();  // idempotent
  EXPECT_TRUE(runner.running());
  EXPECT_TRUE(WaitForTicks(ticks, 3));
  runner.Stop();
  EXPECT_FALSE(runner.running());
  const int stopped_at = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(ticks.load(), stopped_at);
  runner.Stop();  // idempotent
}

TEST(PeriodicThreadTest, NewIntervalCutsTheCurrentWaitShort) {
  std::atomic<int> ticks{0};
  PeriodicThread runner(3'600'000, [&] { ticks.fetch_add(1); });
  runner.Start();
  // Without the restart the first tick would come an hour from now.
  runner.set_interval_ms(1);
  EXPECT_TRUE(WaitForTicks(ticks, 1));
}

TEST(PeriodicThreadTest, SetIntervalClampsAndStarts) {
  PeriodicThread runner(0, [] {});
  EXPECT_EQ(runner.interval_ms(), 1);
  EXPECT_FALSE(runner.running());
  runner.set_interval_ms(-5);
  EXPECT_EQ(runner.interval_ms(), 1);
  EXPECT_TRUE(runner.running());
}

}  // namespace
}  // namespace expdb
