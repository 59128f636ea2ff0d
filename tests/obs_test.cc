// Unit tests for the observability layer (src/obs/): histogram
// semantics and quantile edge cases, counter/gauge/histogram-metric
// behavior including exact multi-threaded aggregation, Prometheus
// export format, the summary table, the instrumentation gate, and the
// span tracer's ring-buffer bounds. The multi-threaded cases double as
// the TSan exercise for the sharded hot paths. The exposition and the
// chrome trace are also compared byte for byte with the printf forms
// kept in tests/json_reference.h.

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "json_reference.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rng/random.h"

namespace crowd::obs {
namespace {

// ---- Histogram ------------------------------------------------------

TEST(HistogramTest, EmptyReportsZeros) {
  Histogram h(Histogram::LatencyBounds());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
}

TEST(HistogramTest, SingleSampleQuantilesCollapseToIt) {
  Histogram h(Histogram::LatencyBounds());
  h.Record(3.3e-4);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.3e-4);
  EXPECT_DOUBLE_EQ(h.min(), 3.3e-4);
  EXPECT_DOUBLE_EQ(h.max(), 3.3e-4);
  // Every quantile of one sample is clamped to that sample.
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 3.3e-4) << "q=" << q;
  }
}

TEST(HistogramTest, BucketForIsFirstBoundAtLeastValue) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.num_buckets(), 4u);  // 3 finite + overflow
  EXPECT_EQ(h.BucketFor(0.5), 0u);
  EXPECT_EQ(h.BucketFor(1.0), 0u);  // le semantics: 1.0 <= 1.0
  EXPECT_EQ(h.BucketFor(1.5), 1u);
  EXPECT_EQ(h.BucketFor(4.0), 2u);
  EXPECT_EQ(h.BucketFor(100.0), 3u);  // overflow
}

TEST(HistogramTest, QuantilesInterpolateAndStayInObservedRange) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  // 100 samples uniform in (0, 4]: quantiles must be monotone and
  // inside the observed range.
  for (int i = 1; i <= 100; ++i) h.Record(i * 0.04);
  EXPECT_EQ(h.count(), 100u);
  double p50 = h.Quantile(0.5);
  double p90 = h.Quantile(0.9);
  double p99 = h.Quantile(0.99);
  EXPECT_LE(h.min(), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // The true median is 2.0 and bucket interpolation is exact at bucket
  // edges dividing the mass evenly.
  EXPECT_NEAR(p50, 2.0, 0.1);
}

TEST(HistogramTest, OverflowBucketQuantileClampsToObservedRange) {
  Histogram h({1.0});
  h.Record(50.0);
  h.Record(90.0);
  // Both samples overflow: interpolation runs inside [min, max], never
  // past the observed maximum.
  EXPECT_GE(h.Quantile(0.99), 50.0);
  EXPECT_LE(h.Quantile(0.99), 90.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 90.0);
  EXPECT_DOUBLE_EQ(h.max(), 90.0);
}

TEST(HistogramTest, MergePrimitivesMatchDirectRecords) {
  Histogram direct({1.0, 2.0});
  direct.Record(0.5);
  direct.Record(1.5);
  direct.Record(9.0);

  Histogram merged({1.0, 2.0});
  merged.MergeBucket(0, 1);
  merged.MergeBucket(1, 1);
  merged.MergeBucket(2, 1);
  merged.MergeSum(0.5 + 1.5 + 9.0);
  merged.MergeMinMax(0.5, 9.0);

  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_DOUBLE_EQ(merged.sum(), direct.sum());
  EXPECT_DOUBLE_EQ(merged.min(), direct.min());
  EXPECT_DOUBLE_EQ(merged.max(), direct.max());
  EXPECT_DOUBLE_EQ(merged.Quantile(0.5), direct.Quantile(0.5));
}

TEST(HistogramTest, ExponentialBounds) {
  std::vector<double> bounds = Histogram::ExponentialBounds(64.0, 4.0, 3);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds[0], 64.0);
  EXPECT_DOUBLE_EQ(bounds[1], 256.0);
  EXPECT_DOUBLE_EQ(bounds[2], 1024.0);
  std::vector<double> latency = Histogram::LatencyBounds();
  std::vector<double> bytes = Histogram::ByteBounds();
  EXPECT_TRUE(std::is_sorted(latency.begin(), latency.end()));
  EXPECT_TRUE(std::is_sorted(bytes.begin(), bytes.end()));
}

// ---- Counter / Gauge ------------------------------------------------

TEST(CounterTest, SingleThreaded) {
  Registry registry;
  Counter* c = registry.GetCounter("crowdeval_test_events_total", "t");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  // Get-or-create returns the same object.
  EXPECT_EQ(registry.GetCounter("crowdeval_test_events_total", "t"), c);
}

TEST(CounterTest, MultiThreadedAggregationIsExact) {
  Registry registry;
  Counter* c = registry.GetCounter("crowdeval_test_mt_total", "t");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddSubtract) {
  Registry registry;
  Gauge* g = registry.GetGauge("crowdeval_test_depth", "t");
  EXPECT_EQ(g->Value(), 0);
  g->Set(10);
  g->Add(5);
  g->Subtract(20);
  EXPECT_EQ(g->Value(), -5);
}

// ---- HistogramMetric ------------------------------------------------

TEST(HistogramMetricTest, MultiThreadedSnapshotIsExact) {
  Registry registry;
  HistogramMetric* h = registry.GetHistogram(
      "crowdeval_test_latency_seconds", "t", {1.0, 2.0, 4.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(0.5 + t);  // thread t lands in a known bucket
      }
    });
  }
  for (auto& t : threads) t.join();
  Histogram snap = h->Snapshot();
  EXPECT_EQ(snap.count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) expected_sum += (0.5 + t) * kPerThread;
  EXPECT_DOUBLE_EQ(snap.sum(), expected_sum);
  EXPECT_DOUBLE_EQ(snap.min(), 0.5);
  EXPECT_DOUBLE_EQ(snap.max(), 7.5);
  // Values 4.5..7.5 overflow past the last bound.
  EXPECT_EQ(snap.bucket_count(0), 1u * kPerThread);   // 0.5
  EXPECT_EQ(snap.bucket_count(1), 1u * kPerThread);   // 1.5
  EXPECT_EQ(snap.bucket_count(2), 2u * kPerThread);   // 2.5, 3.5
  EXPECT_EQ(snap.bucket_count(3), 4u * kPerThread);   // overflow
}

TEST(HistogramMetricTest, EmptySnapshotHasNoRange) {
  Registry registry;
  HistogramMetric* h = registry.GetHistogram(
      "crowdeval_test_empty_seconds", "t", {1.0});
  Histogram snap = h->Snapshot();
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_EQ(snap.min(), 0.0);
  EXPECT_EQ(snap.max(), 0.0);
}

// ---- Registry export ------------------------------------------------

TEST(RegistryTest, PrometheusExportFormat) {
  Registry registry;
  registry.GetCounter("crowdeval_test_b_total", "b counter")->Increment(3);
  registry.GetGauge("crowdeval_test_a_depth", "a gauge")->Set(7);
  HistogramMetric* h = registry.GetHistogram(
      "crowdeval_test_c_seconds", "c histogram", {0.1, 1.0});
  h->Record(0.05);
  h->Record(0.5);
  h->Record(5.0);

  std::string text = registry.ExportPrometheus();
  // Families are sorted by name: a_depth, b_total, c_seconds.
  size_t a = text.find("# HELP crowdeval_test_a_depth a gauge\n");
  size_t b = text.find("# HELP crowdeval_test_b_total b counter\n");
  size_t c = text.find("# HELP crowdeval_test_c_seconds c histogram\n");
  ASSERT_NE(a, std::string::npos) << text;
  ASSERT_NE(b, std::string::npos) << text;
  ASSERT_NE(c, std::string::npos) << text;
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);

  EXPECT_NE(text.find("# TYPE crowdeval_test_a_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("crowdeval_test_a_depth 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crowdeval_test_b_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("crowdeval_test_b_total 3\n"), std::string::npos);

  // Histogram buckets are cumulative with an le="+Inf" bucket equal to
  // the total count.
  EXPECT_NE(text.find("# TYPE crowdeval_test_c_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("crowdeval_test_c_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("crowdeval_test_c_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("crowdeval_test_c_seconds_bucket{le=\"+Inf\"} 3\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("crowdeval_test_c_seconds_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("crowdeval_test_c_seconds_sum 5.5"),
            std::string::npos);
}

TEST(RegistryTest, LabeledSeriesRenderAndStayDistinct) {
  Registry registry;
  Counter* resp = registry.GetCounter("crowdeval_test_cmd_total", "t",
                                      "command", "RESP");
  Counter* eval = registry.GetCounter("crowdeval_test_cmd_total", "t",
                                      "command", "EVAL");
  ASSERT_NE(resp, eval);
  resp->Increment(2);
  eval->Increment(5);
  EXPECT_EQ(registry.NumFamilies(), 1u);

  std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("crowdeval_test_cmd_total{command=\"RESP\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("crowdeval_test_cmd_total{command=\"EVAL\"} 5\n"),
            std::string::npos)
      << text;
  // HELP/TYPE appear once per family, not per series.
  size_t first = text.find("# TYPE crowdeval_test_cmd_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE crowdeval_test_cmd_total", first + 1),
            std::string::npos);
}

// The per-bucket counts of `h`, the overflow bucket last.
std::vector<uint64_t> BucketCounts(const HistogramMetric& h) {
  Histogram snapshot = h.Snapshot();
  std::vector<uint64_t> counts;
  for (size_t b = 0; b < snapshot.num_buckets(); ++b) {
    counts.push_back(snapshot.bucket_count(b));
  }
  return counts;
}

TEST(RegistryTest, PrometheusExportMatchesReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Registry registry;
  registry.GetCounter("crowdeval_test_a_total", "a counter")
      ->Increment(18446744073709551615u);
  registry.GetGauge("crowdeval_test_b_bytes", "a gauge")->Set(-42);
  HistogramMetric* eval = registry.GetHistogram(
      "crowdeval_test_c_seconds", "a histogram",
      Histogram::LatencyBounds(), "command", "EVAL");
  HistogramMetric* resp = registry.GetHistogram(
      "crowdeval_test_c_seconds", "a histogram",
      Histogram::LatencyBounds(), "command", "RESP");
  for (double v : {1.5e-7, 3.3e-5, 0.1, 0.2, 7.0, 1e9}) eval->Record(v);
  // A never-recorded series: every bucket 0, sum 0.
  (void)resp;
  // Non-finite sums keep their Prometheus spelling.
  // Bounds with more than six significant digits, rounded by %g.
  const std::vector<double> bounds = {1.23456789e-7, 1.0 / 3.0, 2.0 / 3.0,
                                      1.0, 98765.4321};
  HistogramMetric* nan_sum =
      registry.GetHistogram("crowdeval_test_d_nan", "nan sum", bounds);
  nan_sum->Record(0.5);
  nan_sum->Record(std::numeric_limits<double>::quiet_NaN());
  HistogramMetric* inf_sum =
      registry.GetHistogram("crowdeval_test_e_inf", "inf sum", bounds);
  inf_sum->Record(kInf);
  HistogramMetric* neg_inf_sum =
      registry.GetHistogram("crowdeval_test_f_neg_inf", "-inf sum", bounds);
  neg_inf_sum->Record(-kInf);
  neg_inf_sum->Record(2.0);

  const auto header = [](const std::string& name, const std::string& help,
                         const std::string& kind) {
    return "# HELP " + name + " " + help + "\n# TYPE " + name + " " + kind +
           "\n";
  };
  std::string want =
      header("crowdeval_test_a_total", "a counter", "counter") +
      "crowdeval_test_a_total 18446744073709551615\n" +
      header("crowdeval_test_b_bytes", "a gauge", "gauge") +
      "crowdeval_test_b_bytes -42\n" +
      header("crowdeval_test_c_seconds", "a histogram", "histogram");
  // Series are ordered by their rendered labels: EVAL before RESP.
  want += ReferenceHistogramSeries(
      "crowdeval_test_c_seconds", "command=\"EVAL\"",
      Histogram::LatencyBounds(), BucketCounts(*eval),
      eval->Snapshot().sum());
  want += ReferenceHistogramSeries(
      "crowdeval_test_c_seconds", "command=\"RESP\"",
      Histogram::LatencyBounds(), BucketCounts(*resp), 0.0);
  want += header("crowdeval_test_d_nan", "nan sum", "histogram");
  want += ReferenceHistogramSeries("crowdeval_test_d_nan", "", bounds,
                                   BucketCounts(*nan_sum),
                                   nan_sum->Snapshot().sum());
  want += header("crowdeval_test_e_inf", "inf sum", "histogram");
  want += ReferenceHistogramSeries("crowdeval_test_e_inf", "", bounds,
                                   BucketCounts(*inf_sum), kInf);
  want += header("crowdeval_test_f_neg_inf", "-inf sum", "histogram");
  want += ReferenceHistogramSeries("crowdeval_test_f_neg_inf", "", bounds,
                                   BucketCounts(*neg_inf_sum), -kInf);

  const std::string got = registry.ExportPrometheus();
  EXPECT_EQ(got, want);
  EXPECT_NE(got.find("crowdeval_test_d_nan_sum NaN\n"), std::string::npos);
  EXPECT_NE(got.find("crowdeval_test_e_inf_sum +Inf\n"), std::string::npos);
  EXPECT_NE(got.find("crowdeval_test_f_neg_inf_sum -Inf\n"),
            std::string::npos);
}

TEST(RegistryTest, SummaryTableListsEverything) {
  Registry registry;
  registry.GetCounter("crowdeval_test_x_total", "t")->Increment(9);
  HistogramMetric* h = registry.GetHistogram(
      "crowdeval_test_y_seconds", "t", Histogram::LatencyBounds());
  h->Record(1e-3);
  std::string table = registry.SummaryTable();
  EXPECT_NE(table.find("crowdeval_test_x_total"), std::string::npos);
  EXPECT_NE(table.find("9"), std::string::npos);
  EXPECT_NE(table.find("crowdeval_test_y_seconds"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
}

TEST(RegistryTest, SummaryTableMatchesReference) {
  Registry registry;
  registry.GetCounter("crowdeval_test_x_total", "t")->Increment(9);
  registry.GetGauge("crowdeval_test_w_depth", "t", "queue", "a")->Set(-3);
  HistogramMetric* h = registry.GetHistogram(
      "crowdeval_test_y_seconds", "t", Histogram::LatencyBounds(), "command",
      std::string(70, 'L'));  // an id wider than the 64-column field
  for (double v : {1e-3, 2.5e-6, 0.75, 12.0}) h->Record(v);
  registry.GetHistogram("crowdeval_test_z_seconds", "t",
                        Histogram::LatencyBounds());  // empty

  std::string want;
  want += ReferenceFormat("%-64s %lld\n",
                          "crowdeval_test_w_depth{queue=\"a\"}", -3LL);
  want += ReferenceFormat("%-64s %llu\n", "crowdeval_test_x_total", 9ULL);
  std::string wide_id = "crowdeval_test_y_seconds{command=\"";
  wide_id.append(70, 'L').append("\"}");
  for (const auto& [id, metric] :
       {std::pair<std::string, HistogramMetric*>{wide_id, h},
        {"crowdeval_test_z_seconds",
         registry.GetHistogram("crowdeval_test_z_seconds", "t", {})}}) {
    const Histogram snap = metric->Snapshot();
    want += ReferenceFormat(
        "%-64s count %llu  mean %.6g  p50 %.6g  p90 %.6g  p99 %.6g  "
        "max %.6g\n",
        id.c_str(), static_cast<unsigned long long>(snap.count()),
        snap.mean(), snap.Quantile(0.5), snap.Quantile(0.9),
        snap.Quantile(0.99), snap.max());
  }
  EXPECT_EQ(registry.SummaryTable(), want);
}

// ---- The instrumentation gate ---------------------------------------

TEST(GateTest, DisabledByDefaultAndToggles) {
  // Tests in this binary may have enabled it; normalize first.
  DisableMetrics();
  EXPECT_EQ(MetricsRegistry(), nullptr);
  EXPECT_FALSE(MetricsEnabled());
  EnableMetrics();
  ASSERT_NE(MetricsRegistry(), nullptr);
  EXPECT_TRUE(MetricsEnabled());
  EXPECT_EQ(MetricsRegistry(), &DefaultRegistry());
  // Pointers handed out stay valid after disabling (the registry is
  // never destroyed); the gate just returns nullptr again.
  Counter* c = MetricsRegistry()->GetCounter(
      "crowdeval_test_gate_total", "t");
  DisableMetrics();
  EXPECT_EQ(MetricsRegistry(), nullptr);
  c->Increment();  // must not crash
  EXPECT_GE(c->Value(), 1u);
}

// ---- Tracer ---------------------------------------------------------

TEST(TraceTest, DisabledRecordsNothing) {
  StopTracing();
  {
    CROWD_SPAN("test.disabled");
  }
  StartTracing(16);
  StopTracing();
  std::string json = ChromeTraceJson();
  EXPECT_EQ(json.find("test.disabled"), std::string::npos) << json;
}

TEST(TraceTest, CapturesNamedSpans) {
  StartTracing(64);
  {
    CROWD_SPAN("test.outer");
    CROWD_SPAN("test.inner");
  }
  StopTracing();
  std::string json = ChromeTraceJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"test.outer\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"test.inner\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
}

TEST(TraceTest, RingWrapsAndStaysBounded) {
  constexpr size_t kCapacity = 8;
  StartTracing(kCapacity);
  // A fresh thread gets a ring of the new capacity (threads already
  // registered keep the ring they were created with).
  std::thread worker([] {
    for (int i = 0; i < 100; ++i) {
      CROWD_SPAN("test.wrap");
    }
  });
  worker.join();
  StopTracing();
  std::string json = ChromeTraceJson();
  size_t events = 0;
  for (size_t pos = json.find("\"test.wrap\""); pos != std::string::npos;
       pos = json.find("\"test.wrap\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, kCapacity) << json;
}

TEST(TraceTest, StartTracingClearsPriorEvents) {
  StartTracing(32);
  {
    CROWD_SPAN("test.first_run");
  }
  StartTracing(32);  // restart discards the first run's events
  {
    CROWD_SPAN("test.second_run");
  }
  StopTracing();
  std::string json = ChromeTraceJson();
  EXPECT_EQ(json.find("test.first_run"), std::string::npos) << json;
  EXPECT_NE(json.find("test.second_run"), std::string::npos) << json;
}

TEST(TraceTest, ThreadsGetDistinctTidsAndSurviveExit) {
  StartTracing(32);
  std::thread worker([] {
    CROWD_SPAN("test.worker_thread");
  });
  worker.join();
  {
    CROWD_SPAN("test.main_thread");
  }
  StopTracing();
  std::string json = ChromeTraceJson();
  // The worker's ring was retired at thread exit but its events are
  // still exported.
  EXPECT_NE(json.find("test.worker_thread"), std::string::npos) << json;
  EXPECT_NE(json.find("test.main_thread"), std::string::npos) << json;
}

TEST(TraceTest, ChromeTraceJsonMatchesReference) {
  // Times from 0 to ~2^64 ns, with the ties and carries of %.3f.
  std::vector<TraceEvent> events;
  const uint64_t starts[] = {0,    1,    499,  500,  999,  1000,
                             1499, 1500, 123456789012345,
                             18446744073709551615u};
  uint32_t tid = 0;
  for (uint64_t start : starts) {
    TraceEvent e;
    e.name = "test.reference";
    e.start_ns = start;
    e.duration_ns = start / 7 + tid;
    e.tid = tid++;
    events.push_back(e);
  }
  Random rng(1411);
  for (int i = 0; i < 5000; ++i) {
    TraceEvent e;
    e.name = "test.random";
    // Up to ~10 days of trace clock, the span a fraction of it.
    e.start_ns = rng.UniformInt(uint64_t{1} << 50);
    e.duration_ns = rng.UniformInt(e.start_ns + 1);
    e.tid = static_cast<uint32_t>(rng.UniformInt(64));
    events.push_back(e);
  }
  EXPECT_EQ(ChromeTraceJson(events), ReferenceChromeTraceJson(events));
  EXPECT_EQ(ChromeTraceJson({}), "{\"traceEvents\":[]}");
}

}  // namespace
}  // namespace crowd::obs
