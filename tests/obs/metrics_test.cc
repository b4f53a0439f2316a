// Unit tests for the obs metrics layer: counters, gauges, histogram
// percentile edge cases, parent chains, registry snapshot/exporters, and
// an 8-thread concurrency hammer.

#include "obs/metrics.h"

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/validate.h"

namespace expdb {
namespace obs {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ParentChainPropagates) {
  Counter grandparent;
  Counter parent(&grandparent);
  Counter child(&parent);
  child.Increment(3);
  parent.Increment(1);
  EXPECT_EQ(child.value(), 3u);
  EXPECT_EQ(parent.value(), 4u);
  EXPECT_EQ(grandparent.value(), 4u);
  // Reset zeroes only the local value; ancestors keep totals.
  child.Reset();
  EXPECT_EQ(child.value(), 0u);
  EXPECT_EQ(grandparent.value(), 4u);
}

TEST(CounterTest, CopyDoesNotDoubleCountIntoParent) {
  Counter parent;
  Counter child(&parent);
  child.Increment(5);
  ASSERT_EQ(parent.value(), 5u);
  Counter copy(child);  // snapshot; events were already aggregated once
  EXPECT_EQ(copy.value(), 5u);
  EXPECT_EQ(parent.value(), 5u);
  copy.Increment();
  EXPECT_EQ(parent.value(), 6u);
}

TEST(GaugeTest, SetForwardsDeltaToParent) {
  Gauge parent;
  Gauge a(&parent);
  Gauge b(&parent);
  a.Set(10);
  b.Set(5);
  EXPECT_EQ(parent.value(), 15);
  a.Set(3);
  EXPECT_EQ(parent.value(), 8);
  b.Add(-5);
  EXPECT_EQ(parent.value(), 3);
}

TEST(GaugeTest, DyingChildRetractsContribution) {
  Gauge parent;
  {
    Gauge child(&parent);
    child.Set(7);
    EXPECT_EQ(parent.value(), 7);
  }
  EXPECT_EQ(parent.value(), 0);
}

TEST(GaugeTest, SetParentMovesContribution) {
  Gauge old_parent;
  Gauge new_parent;
  Gauge child(&old_parent);
  child.Set(4);
  EXPECT_EQ(old_parent.value(), 4);
  child.SetParent(&new_parent);
  EXPECT_EQ(old_parent.value(), 0);
  EXPECT_EQ(new_parent.value(), 4);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 0.0);
}

TEST(HistogramTest, SingleSampleIsEveryPercentile) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 1000);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  // Clamped to observed [min, max]: a single sample is exact at every p.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
}

TEST(HistogramTest, AllSamplesInOneBucket) {
  Histogram h(std::vector<int64_t>{10, 100, 1000});
  for (int i = 0; i < 100; ++i) h.Record(50);
  EXPECT_EQ(h.count(), 100u);
  // Everything landed in the (10, 100] bucket; interpolation must stay
  // clamped to the observed range, i.e. exactly 50.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 50.0);
  auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[1], 100u);
}

TEST(HistogramTest, OverflowBucketAndMonotonePercentiles) {
  Histogram h(std::vector<int64_t>{10, 100});
  h.Record(5);
  h.Record(50);
  h.Record(500);  // overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 500);
  auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[2], 1u);
  double p25 = h.Percentile(25);
  double p50 = h.Percentile(50);
  double p99 = h.Percentile(99);
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p25, 5.0);
  EXPECT_LE(p99, 500.0);
}

TEST(HistogramTest, ParentAggregatesCounts) {
  Histogram parent;
  Histogram child(Histogram::DefaultLatencyBounds(), &parent);
  child.Record(1024);
  child.Record(2048);
  EXPECT_EQ(child.count(), 2u);
  EXPECT_EQ(parent.count(), 2u);
  EXPECT_EQ(parent.sum(), 3072);
}

TEST(HistogramTest, ExponentialBoundsStrictlyIncreasing) {
  auto bounds = Histogram::ExponentialBounds(1, 1.1, 40);
  ASSERT_EQ(bounds.size(), 40u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "at index " << i;
  }
}

TEST(HistogramTest, PercentileExtremesHitObservedMinMax) {
  Histogram h(std::vector<int64_t>{10, 100, 1000});
  for (int i = 0; i < 10; ++i) h.Record(7);
  h.Record(700);
  // p=0 and p=100 must clamp exactly to the observed extremes, not to
  // bucket edges (7 sits inside (0, 10], 700 inside (100, 1000]).
  EXPECT_DOUBLE_EQ(h.Percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 700.0);
}

TEST(HistogramTest, PercentileSweepIsMonotone) {
  Histogram h(std::vector<int64_t>{10, 100, 1000});
  // Spread over every bucket including overflow.
  for (int i = 0; i < 25; ++i) h.Record(5);
  for (int i = 0; i < 25; ++i) h.Record(50);
  for (int i = 0; i < 25; ++i) h.Record(500);
  for (int i = 0; i < 25; ++i) h.Record(5000);
  double prev = h.Percentile(0);
  for (int p = 1; p <= 100; ++p) {
    const double cur = h.Percentile(p);
    EXPECT_GE(cur, prev) << "percentile not monotone at p=" << p;
    prev = cur;
  }
  EXPECT_GE(h.Percentile(0), 5.0);
  EXPECT_LE(h.Percentile(100), 5000.0);
}

TEST(HistogramTest, AllSamplesInOverflowBucket) {
  Histogram h(std::vector<int64_t>{10});
  h.Record(100);
  h.Record(200);
  h.Record(300);
  // The overflow bucket has no upper bound; percentiles must still stay
  // within the observed [min, max] at both extremes and in between, and
  // p=100 is exactly the observed max.
  EXPECT_GE(h.Percentile(0), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 300.0);
  const double p50 = h.Percentile(50);
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, 300.0);
}

TEST(HistogramTest, SingleBucketMonotoneAfterReset) {
  Histogram h(std::vector<int64_t>{1000});
  for (int i = 0; i < 10; ++i) h.Record(i * 100);
  h.Reset();
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);  // empty again
  h.Record(42);
  // Post-reset single sample behaves like a fresh histogram.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 42.0);
}

TEST(RegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry r;
  Counter* c1 = r.GetCounter("test_counter", "help text");
  Counter* c2 = r.GetCounter("test_counter");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = r.GetGauge("test_gauge");
  EXPECT_EQ(g1, r.GetGauge("test_gauge"));
  Histogram* h1 = r.GetHistogram("test_hist");
  EXPECT_EQ(h1, r.GetHistogram("test_hist"));
  EXPECT_EQ(r.MetricCount(), 3u);
}

TEST(RegistryTest, SnapshotSortedAndComplete) {
  MetricsRegistry r;
  r.GetCounter("b_counter")->Increment(2);
  r.GetGauge("a_gauge")->Set(-3);
  r.GetHistogram("c_hist")->Record(100);
  auto snap = r.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a_gauge");
  EXPECT_EQ(snap[1].name, "b_counter");
  EXPECT_EQ(snap[2].name, "c_hist");
  EXPECT_DOUBLE_EQ(snap[0].value, -3.0);
  EXPECT_DOUBLE_EQ(snap[1].value, 2.0);
  EXPECT_EQ(snap[2].count, 1u);
}

TEST(RegistryTest, PrometheusAndJsonExporters) {
  MetricsRegistry r;
  r.GetCounter("exp_requests_total", "requests served")->Increment(7);
  r.GetHistogram("exp_latency_ns")->Record(512);
  std::string prom = r.PrometheusText();
  EXPECT_NE(prom.find("# HELP exp_requests_total requests served"),
            std::string::npos);
  EXPECT_NE(prom.find("exp_requests_total 7"), std::string::npos);
  EXPECT_NE(prom.find("exp_latency_ns"), std::string::npos);
  std::string json = r.JsonText();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"exp_requests_total\""), std::string::npos);
}

TEST(RegistryTest, ResetAllZeroesEverything) {
  MetricsRegistry r;
  r.GetCounter("x_total")->Increment(5);
  r.GetGauge("x_gauge")->Set(9);
  r.GetHistogram("x_hist")->Record(77);
  r.ResetAll();
  EXPECT_EQ(r.GetCounter("x_total")->value(), 0u);
  EXPECT_EQ(r.GetGauge("x_gauge")->value(), 0);
  EXPECT_EQ(r.GetHistogram("x_hist")->count(), 0u);
}

TEST(RegistryTest, GlobalPreRegistersAllSubsystems) {
  auto snap = MetricsRegistry::Global().Snapshot();
  // The acceptance bar: >= 12 distinct metrics spanning all five
  // subsystems, visible even before any subsystem has run.
  EXPECT_GE(snap.size(), 12u);
  bool eval = false, expiration = false, view = false, replica = false,
       sql = false;
  for (const MetricSnapshot& m : snap) {
    if (m.name.rfind("expdb_eval_", 0) == 0) eval = true;
    if (m.name.rfind("expdb_expiration_", 0) == 0) expiration = true;
    if (m.name.rfind("expdb_view_", 0) == 0) view = true;
    if (m.name.rfind("expdb_replica_", 0) == 0) replica = true;
    if (m.name.rfind("expdb_sql_", 0) == 0) sql = true;
  }
  EXPECT_TRUE(eval);
  EXPECT_TRUE(expiration);
  EXPECT_TRUE(view);
  EXPECT_TRUE(replica);
  EXPECT_TRUE(sql);
}

// 8 threads hammer the same registry: counters, gauges, histograms, and
// concurrent registration of fresh names. Run under TSan/ASan in CI.
TEST(RegistryConcurrencyTest, EightThreadHammer) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  Counter* shared_counter = r.GetCounter("hammer_total");
  Gauge* shared_gauge = r.GetGauge("hammer_gauge");
  Histogram* shared_hist = r.GetHistogram("hammer_hist");
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kIters; ++i) {
        shared_counter->Increment();
        shared_gauge->Add(1);
        shared_gauge->Add(-1);
        shared_hist->Record(i % 4096);
        if (i % 1024 == 0) {
          // Concurrent registration, mixing existing and fresh names.
          r.GetCounter("hammer_total")->Increment();
          r.GetCounter("hammer_t" + std::to_string(t))->Increment();
          r.Snapshot();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // i % 1024 == 0 hits for i = 0, 1024, ..., i.e. ceil(kIters/1024) times.
  const uint64_t hits_per_thread = (kIters + 1023) / 1024;
  EXPECT_EQ(shared_counter->value(),
            static_cast<uint64_t>(kThreads) * kIters +
                kThreads * hits_per_thread);
  EXPECT_EQ(shared_gauge->value(), 0);
  EXPECT_EQ(shared_hist->count(), static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(r.GetCounter("hammer_t" + std::to_string(t))->value(),
              hits_per_thread);
  }
}

// Scrapes race Record: every exposition taken while 4 threads record into
// one histogram must still be conformant — in particular its +Inf bucket
// must equal its _count, which a scrape reading count() and the buckets
// separately violated. Run under TSan in CI.
TEST(RegistryConcurrencyTest, ScrapesStayConformantWhileFourThreadsRecord) {
  MetricsRegistry r;
  Histogram* h = r.GetHistogram("scrape_latency_ns", "Recorded while scraped");
  Counter* c = r.GetCounter("scrape_events_total", "Recorded while scraped");
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = t; !stop.load(std::memory_order_relaxed); i += 7) {
        h->Record(i % 5000000);
        c->Increment();
      }
    });
  }
  int failures = 0;
  for (int scrape = 0; scrape < 400 && failures == 0; ++scrape) {
    std::string error;
    if (!ValidatePrometheusText(r.PrometheusText(), &error)) {
      ADD_FAILURE() << "scrape " << scrape << ": " << error;
      ++failures;
    }
    if (!ValidateJson(r.JsonText(), &error)) {
      ADD_FAILURE() << "scrape " << scrape << ": " << error;
      ++failures;
    }
  }
  stop.store(true);
  for (std::thread& th : threads) th.join();
  EXPECT_GT(h->count(), 0u);
}

// Parent chains under concurrency: children in different threads, one
// shared parent; the parent must see every increment exactly once.
TEST(RegistryConcurrencyTest, ParentedCountersFromManyThreads) {
  Counter parent;
  constexpr int kThreads = 8;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Counter child(&parent);
      for (int i = 0; i < kIters; ++i) child.Increment();
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(parent.value(), static_cast<uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace obs
}  // namespace expdb
