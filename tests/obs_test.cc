// Unit tests for the cooper_obs observability layer: the metrics registry
// (counters/gauges/histograms and their JSONL export), the tracer (Chrome
// trace-event schema, span nesting, ParallelFor propagation), the JSON
// helper, and the COOPER_LOG_LEVEL plumbing.  Each gtest case runs in its
// own process (gtest_discover_tests), so enabling the sticky process-wide
// switch in one test cannot leak into another.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cooper {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().ResetValues();
    obs::Tracer::Global().Clear();
  }
  void TearDown() override { obs::SetEnabled(false); }
};

// --- Master switch ---

TEST_F(ObsTest, DisabledInstrumentsAreNoOps) {
  auto& counter = obs::MetricsRegistry::Global().GetCounter("off.counter");
  auto& gauge = obs::MetricsRegistry::Global().GetGauge("off.gauge");
  auto& histogram = obs::MetricsRegistry::Global().GetHistogram("off.histo");
  obs::SetEnabled(false);
  counter.Inc(7);
  gauge.Set(3.5);
  histogram.Record(1.0);
  COOPER_COUNT("off.macro");
  {
    obs::Span span("off.span", "test");
  }
  obs::SetEnabled(true);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0.0);
  EXPECT_EQ(histogram.Snapshot().count, 0u);
  EXPECT_EQ(obs::MetricsRegistry::Global().GetCounter("off.macro").Value(), 0u);
  EXPECT_EQ(obs::Tracer::Global().event_count(), 0u);
}

// --- Counters ---

TEST_F(ObsTest, CounterAccumulates) {
  auto& c = obs::MetricsRegistry::Global().GetCounter("test.counter");
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  EXPECT_EQ(c.name(), "test.counter");
  // Same name returns the same object.
  EXPECT_EQ(&obs::MetricsRegistry::Global().GetCounter("test.counter"), &c);
}

TEST_F(ObsTest, CounterMacroCachesAndCounts) {
  for (int i = 0; i < 5; ++i) COOPER_COUNT("test.macro");
  COOPER_COUNT_N("test.macro", 10);
  EXPECT_EQ(obs::MetricsRegistry::Global().GetCounter("test.macro").Value(),
            15u);
}

TEST_F(ObsTest, CounterExactUnderContention) {
  auto& c = obs::MetricsRegistry::Global().GetCounter("test.contended");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, ResetValuesZeroesButKeepsRegistrations) {
  auto& c = obs::MetricsRegistry::Global().GetCounter("test.reset");
  c.Inc(9);
  obs::MetricsRegistry::Global().ResetValues();
  EXPECT_EQ(c.Value(), 0u);
  c.Inc(2);  // cached reference still valid
  EXPECT_EQ(c.Value(), 2u);
}

// --- Gauges ---

TEST_F(ObsTest, GaugeSetAndAdd) {
  auto& g = obs::MetricsRegistry::Global().GetGauge("test.gauge");
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Add(1.5);
  EXPECT_EQ(g.Value(), 4.0);
  g.Set(-1.0);
  EXPECT_EQ(g.Value(), -1.0);
}

// --- Histograms ---

TEST_F(ObsTest, HistogramSummaryStatistics) {
  auto& h = obs::MetricsRegistry::Global().GetHistogram(
      "test.histo", {1.0, 2.0, 5.0, 10.0});
  for (const double v : {0.5, 1.5, 1.5, 4.0, 9.0, 100.0}) h.Record(v);
  const auto s = h.Snapshot();
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 116.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  ASSERT_EQ(s.buckets.size(), 5u);  // 4 bounds + overflow
  EXPECT_EQ(s.buckets[0], 1u);      // 0.5
  EXPECT_EQ(s.buckets[1], 2u);      // 1.5, 1.5
  EXPECT_EQ(s.buckets[2], 1u);      // 4.0
  EXPECT_EQ(s.buckets[3], 1u);      // 9.0
  EXPECT_EQ(s.buckets[4], 1u);      // 100.0 overflow
  // Quantiles are interpolated but must stay inside the observed range and
  // be monotone.
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST_F(ObsTest, HistogramDefaultBoundsCoverMicroseconds) {
  auto& h = obs::MetricsRegistry::Global().GetHistogram("test.default_bounds");
  EXPECT_EQ(h.bounds(), obs::DefaultBounds());
  h.Record(1234.0);
  EXPECT_EQ(h.Snapshot().count, 1u);
}

// --- Snapshot / JSONL export ---

TEST_F(ObsTest, SnapshotJsonlIsValidJsonPerLine) {
  obs::MetricsRegistry::Global().GetCounter("test.jsonl.counter").Inc(3);
  obs::MetricsRegistry::Global().GetGauge("test.jsonl.gauge").Set(1.25);
  obs::MetricsRegistry::Global().GetHistogram("test.jsonl.histo").Record(42.0);
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const std::string jsonl = snapshot.ToJsonl();

  std::istringstream lines(jsonl);
  std::string line;
  bool saw_counter = false, saw_gauge = false, saw_histo = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto doc = obs::json::Parse(line);
    ASSERT_TRUE(doc.has_value()) << "unparseable JSONL line: " << line;
    ASSERT_TRUE(doc->is_object());
    const auto* type = doc->Find("type");
    const auto* name = doc->Find("name");
    ASSERT_NE(type, nullptr);
    ASSERT_NE(name, nullptr);
    ASSERT_TRUE(type->is_string());
    ASSERT_TRUE(name->is_string());
    if (name->str == "test.jsonl.counter") {
      saw_counter = true;
      EXPECT_EQ(type->str, "counter");
      ASSERT_NE(doc->Find("value"), nullptr);
      EXPECT_EQ(doc->Find("value")->number, 3.0);
    } else if (name->str == "test.jsonl.gauge") {
      saw_gauge = true;
      EXPECT_EQ(type->str, "gauge");
      EXPECT_EQ(doc->Find("value")->number, 1.25);
    } else if (name->str == "test.jsonl.histo") {
      saw_histo = true;
      EXPECT_EQ(type->str, "histogram");
      for (const char* key : {"count", "sum", "min", "max", "p50", "p95",
                              "p99"}) {
        ASSERT_NE(doc->Find(key), nullptr) << "missing " << key;
        EXPECT_TRUE(doc->Find(key)->is_number());
      }
      ASSERT_NE(doc->Find("bounds"), nullptr);
      ASSERT_NE(doc->Find("buckets"), nullptr);
      EXPECT_TRUE(doc->Find("bounds")->is_array());
      EXPECT_TRUE(doc->Find("buckets")->is_array());
      EXPECT_EQ(doc->Find("buckets")->array.size(),
                doc->Find("bounds")->array.size() + 1);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histo);
}

TEST_F(ObsTest, SnapshotIsSortedByName) {
  obs::MetricsRegistry::Global().GetCounter("test.zz").Inc();
  obs::MetricsRegistry::Global().GetCounter("test.aa").Inc();
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  for (std::size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].first, snapshot.counters[i].first);
  }
}

// --- Determinism ---

TEST_F(ObsTest, CountersIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    obs::MetricsRegistry::Global().ResetValues();
    common::ParallelFor(threads, 0, 1000, 16, [](std::size_t lo,
                                                 std::size_t hi) {
      COOPER_COUNT_N("test.determinism.items", hi - lo);
      COOPER_COUNT("test.determinism.chunks");
    });
    const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
    return snapshot.counters;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("test.determinism.items")
                .Value(),
            1000u);
}

// --- Tracer ---

TEST_F(ObsTest, SpanEmitsCompleteEvent) {
  {
    obs::Span span("test.outer", "test");
    obs::Span inner("test.inner", "test");
  }
  EXPECT_EQ(obs::Tracer::Global().event_count(), 2u);

  std::ostringstream out;
  obs::Tracer::Global().WriteChromeTrace(out);
  const auto doc = obs::json::Parse(out.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const auto* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  const obs::json::Value* outer = nullptr;
  const obs::json::Value* inner = nullptr;
  for (const auto& e : events->array) {
    const auto* name = e.Find("name");
    if (name == nullptr) continue;
    if (name->str == "test.outer") outer = &e;
    if (name->str == "test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  for (const auto* e : {outer, inner}) {
    EXPECT_EQ(e->Find("ph")->str, "X");
    EXPECT_EQ(e->Find("cat")->str, "test");
    EXPECT_TRUE(e->Find("ts")->is_number());
    EXPECT_TRUE(e->Find("dur")->is_number());
    EXPECT_TRUE(e->Find("pid")->is_number());
    EXPECT_TRUE(e->Find("tid")->is_number());
  }
  // Same thread, lexically nested: the inner interval is contained in the
  // outer one.
  EXPECT_EQ(outer->Find("tid")->number, inner->Find("tid")->number);
  EXPECT_LE(outer->Find("ts")->number, inner->Find("ts")->number);
  EXPECT_GE(outer->Find("ts")->number + outer->Find("dur")->number,
            inner->Find("ts")->number + inner->Find("dur")->number);
}

TEST_F(ObsTest, CurrentSpanNameTracksInnermost) {
  EXPECT_EQ(obs::CurrentSpanName(), "");
  obs::Span outer("a", "test");
  EXPECT_EQ(obs::CurrentSpanName(), "a");
  {
    obs::Span inner("b", "test");
    EXPECT_EQ(obs::CurrentSpanName(), "b");
  }
  EXPECT_EQ(obs::CurrentSpanName(), "a");
}

TEST_F(ObsTest, TraceHasThreadNameMetadata) {
  obs::SetCurrentThreadName("obs-test-main");
  {
    obs::Span span("test.named", "test");
  }
  std::ostringstream out;
  obs::Tracer::Global().WriteChromeTrace(out);
  const auto doc = obs::json::Parse(out.str());
  ASSERT_TRUE(doc.has_value());
  bool saw_metadata = false;
  for (const auto& e : doc->Find("traceEvents")->array) {
    const auto* ph = e.Find("ph");
    if (ph == nullptr || ph->str != "M") continue;
    ASSERT_NE(e.Find("name"), nullptr);
    EXPECT_EQ(e.Find("name")->str, "thread_name");
    const auto* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->Find("name"), nullptr);
    if (args->Find("name")->str == "obs-test-main") saw_metadata = true;
  }
  EXPECT_TRUE(saw_metadata);
}

TEST_F(ObsTest, ParallelForPropagatesSpanToWorkers) {
  std::set<int> seen_ids;
  std::mutex mu;
  std::atomic<int> distinct{0};
  {
    obs::Span span("test.parallel_stage", "test");
    common::ParallelFor(4, 0, 8, 1, [&](std::size_t, std::size_t) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (seen_ids.insert(obs::CurrentThreadId()).second) {
          distinct.store(static_cast<int>(seen_ids.size()));
        }
      }
      // Rendezvous: hold the chunk until a second thread has joined in, so
      // the trace deterministically shows the stage on >= 2 lanes (bounded
      // wait keeps a 1-core host from hanging).
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
      while (distinct.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
  }
  auto parallel_tids = [] {
    std::ostringstream out;
    obs::Tracer::Global().WriteChromeTrace(out);
    const auto doc = obs::json::Parse(out.str());
    std::set<double> tids;
    if (!doc.has_value()) return tids;
    for (const auto& e : doc->Find("traceEvents")->array) {
      const auto* cat = e.Find("cat");
      if (cat == nullptr || cat->str != "parallel") continue;
      EXPECT_EQ(e.Find("name")->str, "test.parallel_stage");
      tids.insert(e.Find("tid")->number);
    }
    return tids;
  };
  // The caller participates inline, so its parallel event is flushed by the
  // time ParallelFor returns.
  ASSERT_GE(parallel_tids().size(), 1u);
  if (distinct.load() >= 2) {
    // A worker's span closes *after* it credits its last chunk, so its event
    // can land just after ParallelFor returns — poll briefly.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (parallel_tids().size() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_GE(parallel_tids().size(), 2u);
  }
}

TEST_F(ObsTest, ParallelForWithoutSpanEmitsNoParallelEvents) {
  common::ParallelFor(4, 0, 8, 1, [](std::size_t, std::size_t) {});
  std::ostringstream out;
  obs::Tracer::Global().WriteChromeTrace(out);
  const auto doc = obs::json::Parse(out.str());
  ASSERT_TRUE(doc.has_value());
  for (const auto& e : doc->Find("traceEvents")->array) {
    const auto* cat = e.Find("cat");
    if (cat != nullptr) EXPECT_NE(cat->str, "parallel");
  }
}

// TSan hammer: spans, counters and histogram records racing from every pool
// thread while another thread snapshots concurrently.  The assertions are
// deliberately weak — the point is the data-race-free execution under
// `ctest -L obs` in the tsan preset.
TEST_F(ObsTest, ParallelForHammerIsRaceFree) {
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
      (void)obs::Tracer::Global().event_count();
      (void)snapshot;
    }
  });
  for (int round = 0; round < 10; ++round) {
    obs::Span span("test.hammer", "test");
    common::ParallelFor(0, 0, 256, 4, [](std::size_t lo, std::size_t hi) {
      COOPER_COUNT_N("test.hammer.items", hi - lo);
      obs::MetricsRegistry::Global()
          .GetHistogram("test.hammer.histo")
          .Record(static_cast<double>(hi - lo));
      obs::Span inner("test.hammer.chunk", "test");
    });
  }
  stop.store(true);
  snapshotter.join();
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("test.hammer.items")
                .Value(),
            2560u);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetHistogram("test.hammer.histo")
                .Snapshot()
                .count,
            640u);
}

TEST_F(ObsTest, TotalUsSumsSpansByName) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Emit("test.stage", "test", 0.0, 5.0);
  tracer.Emit("test.stage", "test", 10.0, 7.0);
  tracer.Emit("test.other", "test", 0.0, 100.0);
  tracer.Emit("test.stage", "parallel", 0.0, 100.0);  // a worker's copy
  EXPECT_DOUBLE_EQ(tracer.TotalUs("test.stage"), 12.0);
  EXPECT_DOUBLE_EQ(tracer.TotalUs("test.missing"), 0.0);
  {
    obs::Span outer("test.outer", "test");
    obs::Span inner("test.inner", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A nested span counts in both its own name and its parent's.
  EXPECT_GT(tracer.TotalUs("test.inner"), 0.0);
  EXPECT_GE(tracer.TotalUs("test.outer"), tracer.TotalUs("test.inner"));
}

TEST_F(ObsTest, TotalUsCountsParallelForStageOnce) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const double t0 = obs::TraceNowUs();
  {
    obs::Span span("test.parallel_total", "test");
    common::ParallelFor(4, 0, 8, 1, [](std::size_t, std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  const double wall_us = obs::TraceNowUs() - t0;
  // The caller re-opens the span as a "parallel" copy too, so the name has
  // at least two events; only the stage itself may count.
  EXPECT_GE(tracer.event_count(), 2u);
  const double total = tracer.TotalUs("test.parallel_total");
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, wall_us);
}

TEST_F(ObsTest, TotalUsIsZeroAfterClearAndWhileDisabled) {
  obs::Tracer& tracer = obs::Tracer::Global();
  {
    obs::Span span("test.total", "test");
  }
  EXPECT_GT(tracer.event_count(), 0u);
  tracer.Clear();
  EXPECT_EQ(tracer.TotalUs("test.total"), 0.0);
  obs::SetEnabled(false);
  {
    obs::Span span("test.total", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(tracer.TotalUs("test.total"), 0.0);
}

TEST_F(ObsTest, ClearDropsEvents) {
  {
    obs::Span span("test.cleared", "test");
  }
  EXPECT_GT(obs::Tracer::Global().event_count(), 0u);
  obs::Tracer::Global().Clear();
  EXPECT_EQ(obs::Tracer::Global().event_count(), 0u);
  EXPECT_EQ(obs::Tracer::Global().dropped_events(), 0u);
}

// --- JSON helper ---

TEST(JsonTest, ParsesScalarsAndContainers) {
  const auto doc = obs::json::Parse(
      R"({"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const auto* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(doc->Find("b")->str, "x\ny");
  EXPECT_TRUE(doc->Find("c")->boolean);
  EXPECT_EQ(doc->Find("d")->type, obs::json::Value::Type::kNull);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(obs::json::Parse("").has_value());
  EXPECT_FALSE(obs::json::Parse("{").has_value());
  EXPECT_FALSE(obs::json::Parse("[1, 2,]").has_value());
  EXPECT_FALSE(obs::json::Parse("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(obs::json::Parse("nul").has_value());
}

TEST(JsonTest, EscapeRoundTripsThroughParse) {
  const std::string raw = "line1\nline2\t\"quoted\" \\slash\\";
  const auto doc = obs::json::Parse("\"" + obs::json::Escape(raw) + "\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->str, raw);
}

// --- Logging ---

TEST(LoggingLevelTest, ParseLogLevelNamesAndDigits) {
  using cooper::LogLevel;
  EXPECT_EQ(ParseLogLevel("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("INFO", LogLevel::kError), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("Warning", LogLevel::kInfo), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("warn", LogLevel::kInfo), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("error", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("0", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("3", LogLevel::kInfo), LogLevel::kError);
  // Unknown / null fall back.
  EXPECT_EQ(ParseLogLevel("verbose", LogLevel::kWarning), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel(nullptr, LogLevel::kDebug), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("7", LogLevel::kInfo), LogLevel::kInfo);
}

}  // namespace
}  // namespace cooper
