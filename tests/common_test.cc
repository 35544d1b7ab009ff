#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace cooper {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = DataLossError("truncated header");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(), "truncated header");
  EXPECT_EQ(s.ToString(), "DATA_LOSS: truncated header");
}

TEST(StatusTest, EveryFactoryProducesMatchingCode) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(OutOfRangeError("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(NotFoundError("").code(), StatusCode::kNotFound);
  EXPECT_EQ(DataLossError("").code(), StatusCode::kDataLoss);
  EXPECT_EQ(ResourceExhaustedError("").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
}

TEST(StatusTest, CodeNamesAreUnique) {
  std::set<std::string> names;
  for (const auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kDataLoss,
        StatusCode::kResourceExhausted, StatusCode::kFailedPrecondition,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    names.insert(StatusCodeName(code));
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFoundError("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  const std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailsIfNegative(int x) {
  if (x < 0) return InvalidArgumentError("negative");
  return Status::Ok();
}

Status UsesReturnIfError(int x) {
  COOPER_RETURN_IF_ERROR(FailsIfNegative(x));
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return OutOfRangeError("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  COOPER_ASSIGN_OR_RETURN(const int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  ASSERT_TRUE(DoubleIt(21).ok());
  EXPECT_EQ(*DoubleIt(21), 42);
  EXPECT_EQ(DoubleIt(0).status().code(), StatusCode::kOutOfRange);
}

// --- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(RngTest, NormalScaledMoments) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformInt(10), 10u);
}

TEST(RngTest, ForkedStreamIsIndependent) {
  Rng parent(29);
  Rng child = parent.Fork();
  // The fork and the parent's continued stream should not be identical.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.NextU64() == child.NextU64()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

// --- Table ---

TEST(TableTest, RendersAlignedColumns) {
  Table t({"a", "long-header"});
  t.AddRow({"x", "1"});
  t.AddRow({"yyyy", "2"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| a    | long-header |"), std::string::npos);
  EXPECT_NE(s.find("| yyyy | 2           |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_NE(t.ToString().find("only"), std::string::npos);
}

TEST(FormatTest, FormatFixedDigits) {
  EXPECT_EQ(FormatFixed(0.756, 2), "0.76");
  EXPECT_EQ(FormatFixed(3.0, 1), "3.0");
  EXPECT_EQ(FormatFixed(-1.25, 2), "-1.25");
}

TEST(FormatTest, ScoreCellGrammar) {
  EXPECT_EQ(FormatScoreCell(0.76, true, 0.5), "0.76");
  EXPECT_EQ(FormatScoreCell(0.40, true, 0.5), "X");   // missed detection
  EXPECT_EQ(FormatScoreCell(0.90, false, 0.5), "");   // out of detection area
}

// --- ThreadPool / ParallelFor ---

TEST(ThreadPoolTest, CoversEveryElementExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> visits(1000);
    common::ParallelFor(threads, 0, visits.size(), 7,
                        [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i) ++visits[i];
                        });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokes) {
  std::atomic<int> calls{0};
  common::ParallelFor(4, 5, 5, 8,
                      [&](std::size_t, std::size_t) { ++calls; });
  common::ParallelFor(4, 9, 3, 8,
                      [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, GrainLargerThanRangeIsOneChunk) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  common::ParallelFor(8, 2, 12, 100, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 2u);
  EXPECT_EQ(chunks[0].second, 12u);
}

TEST(ThreadPoolTest, ChunkDecompositionIndependentOfThreadCount) {
  // The determinism contract: chunk boundaries depend only on range and
  // grain, so per-chunk results merged in chunk order are identical at any
  // thread count.
  auto boundaries = [](int threads) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    common::ParallelFor(threads, 3, 500, 13,
                        [&](std::size_t lo, std::size_t hi) {
                          std::lock_guard<std::mutex> lock(mu);
                          chunks.emplace_back(lo, hi);
                        });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = boundaries(1);
  EXPECT_EQ(boundaries(2), serial);
  EXPECT_EQ(boundaries(8), serial);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        common::ParallelFor(threads, 0, 100, 5,
                            [&](std::size_t lo, std::size_t) {
                              if (lo >= 50) throw std::runtime_error("boom");
                            }),
        std::runtime_error)
        << "threads " << threads;
  }
  // The pool survives a failed call and keeps working.
  std::atomic<int> sum{0};
  common::ParallelFor(4, 0, 10, 1,
                      [&](std::size_t lo, std::size_t) { sum += static_cast<int>(lo); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A ParallelFor issued from inside a chunk must not deadlock the pool.
  std::atomic<int> inner_total{0};
  common::ParallelFor(4, 0, 8, 1, [&](std::size_t, std::size_t) {
    common::ParallelFor(4, 0, 4, 1, [&](std::size_t, std::size_t) {
      ++inner_total;
    });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPoolTest, OwnedPoolUsesRealWorkers) {
  // A pool built with 4 keeps 3 workers regardless of host core count, so
  // this exercises genuine cross-thread chunk claiming even on one core.
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> visits(257);
  pool.ParallelFor(0, visits.size(), 3, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++visits[i];
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  // Exception from a worker-executed chunk reaches the caller, and the pool
  // stays usable afterwards.
  EXPECT_THROW(pool.ParallelFor(0, 64, 1,
                                [](std::size_t, std::size_t) {
                                  throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.ParallelFor(0, 64, 1, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, ResolveThreadsSemantics) {
  EXPECT_GE(common::ResolveThreads(0), 1);
  EXPECT_GE(common::ResolveThreads(-3), 1);
  EXPECT_EQ(common::ResolveThreads(1), 1);
  EXPECT_EQ(common::ResolveThreads(6), 6);
}

// --- Logging ---

TEST(LoggingTest, LevelFiltering) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  COOPER_LOG(Info) << "should be suppressed";
  SetLogLevel(before);
}

TEST(LoggingTest, MacroCompilesInExpressionContexts) {
  if (GetLogLevel() == LogLevel::kDebug)
    COOPER_LOG(Info) << "branch body without braces";
  else
    COOPER_LOG(Debug) << "else branch";
  SUCCEED();
}

}  // namespace
}  // namespace cooper
