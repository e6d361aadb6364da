#include <gtest/gtest.h>

#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/crc32.h"
#include "src/base/histogram.h"
#include "src/base/rate_limiter.h"
#include "src/base/rng.h"
#include "src/base/serial.h"
#include "src/base/status.h"
#include "src/base/thread_pool.h"

namespace frangipani {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(OkStatus().ok());
  Status err = NotFound("missing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: missing");
}

TEST(StatusTest, StatusOrValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e(Internal("boom"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInternal);
}

TEST(StatusTest, Macros) {
  auto fails = []() -> Status { return InvalidArgument("x"); };
  auto wrapper = [&]() -> Status {
    RETURN_IF_ERROR(fails());
    return OkStatus();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInvalidArgument);

  auto gives = []() -> StatusOr<std::string> { return std::string("hi"); };
  auto user = [&]() -> StatusOr<size_t> {
    ASSIGN_OR_RETURN(std::string s, gives());
    return s.size();
  };
  auto result = user();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 2u);
}

TEST(SerialTest, RoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU16(0x1234);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI64(-42);
  enc.PutBool(true);
  enc.PutString("hello");
  enc.PutBytes(Bytes{1, 2, 3});
  Bytes buf = enc.Take();
  Decoder dec(buf);
  EXPECT_EQ(dec.GetU8(), 0xAB);
  EXPECT_EQ(dec.GetU16(), 0x1234);
  EXPECT_EQ(dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetI64(), -42);
  EXPECT_TRUE(dec.GetBool());
  EXPECT_EQ(dec.GetString(), "hello");
  EXPECT_EQ(dec.GetBytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(SerialTest, TruncatedInputSetsError) {
  Encoder enc;
  enc.PutU32(7);
  Bytes buf = enc.Take();
  Decoder dec(buf);
  dec.GetU64();
  EXPECT_FALSE(dec.ok());
}

TEST(SerialTest, MalformedLengthPrefix) {
  Encoder enc;
  enc.PutU32(1000);  // claims 1000 bytes follow; none do
  Bytes buf = enc.Take();
  Decoder dec(buf);
  Bytes out = dec.GetBytes();
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(dec.ok());
}

TEST(Crc32Test, KnownValues) {
  // CRC-32C of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_NE(Crc32c("a", 1), Crc32c("b", 1));
}

TEST(RateLimiterTest, UnlimitedReturnsNow) {
  RateLimiter rl(0);
  TimePoint before = std::chrono::steady_clock::now();
  TimePoint t = rl.Acquire(1 << 20);
  EXPECT_LE(t, before + std::chrono::milliseconds(5));
}

TEST(RateLimiterTest, SerializesTransfers) {
  RateLimiter rl(1e6);  // 1 MB/s
  TimePoint start = std::chrono::steady_clock::now();
  TimePoint t1 = rl.Acquire(100'000);  // 100 ms of capacity
  TimePoint t2 = rl.Acquire(100'000);
  EXPECT_GE(std::chrono::duration<double>(t1 - start).count(), 0.099);
  EXPECT_GE(std::chrono::duration<double>(t2 - t1).count(), 0.099);
  EXPECT_EQ(rl.total_bytes(), 200'000u);
}

TEST(ManualClockTest, Advances) {
  ManualClock clock;
  TimePoint t0 = clock.Now();
  clock.Advance(std::chrono::microseconds(500));
  EXPECT_EQ(std::chrono::duration_cast<std::chrono::microseconds>(clock.Now() - t0).count(),
            500);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitFrontRunsAheadOfQueuedWork) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::mutex mu;
  std::vector<int> order;
  pool.Submit([opened] { opened.wait(); });  // holds the one worker
  pool.Submit([&] {
    std::lock_guard<std::mutex> guard(mu);
    order.push_back(1);
  });
  pool.SubmitFront([&] {
    std::lock_guard<std::mutex> guard(mu);
    order.push_back(2);
  });
  gate.set_value();
  pool.Drain();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(PeriodicTaskTest, RunFirstFiresWithoutWaitingAPeriod) {
  std::atomic<int> fires{0};
  PeriodicTask task(Duration(3600'000'000), [&] { fires.fetch_add(1); }, /*run_first=*/true);
  for (int i = 0; i < 2000 && fires.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fires.load(), 1);
}

TEST(PeriodicTaskTest, FiresAndStops) {
  std::atomic<int> fires{0};
  {
    PeriodicTask task(Duration(5'000), [&] { fires.fetch_add(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  int after_stop = fires.load();
  EXPECT_GE(after_stop, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fires.load(), after_stop);
}

TEST(RngTest, DeterministicAndBounded) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(10), 10u);
    uint64_t x = r.Range(5, 9);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 9u);
    double d = r.Double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(r.Name(8).size(), 8u);
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_NEAR(h.Percentile(0.5), 50, 2);
  EXPECT_NEAR(h.Percentile(0.99), 99, 2);
  EXPECT_EQ(h.Max(), 100);
}

}  // namespace
}  // namespace frangipani
