// Tests for the benchmark's own statistics and failure accounting.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "client.h"
#include "stats.h"

namespace dfkybench {
namespace {

TEST(HighestSupportedPercentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(highest_supported_percentile(0).has_value());
  EXPECT_FALSE(highest_supported_percentile(19).has_value());
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(Summarize, ReportsMedianAndTopPercentileWithCount) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  ASSERT_TRUE(s.top_q.has_value());
  EXPECT_EQ(*s.top_q, 99.0);
  EXPECT_NEAR(s.top, 990.01, 1e-9);
}

TEST(Summarize, SmallSampleHasNoTail) {
  const LatencySummary s = summarize({3, 1, 2});
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.p50, 2);
  EXPECT_FALSE(s.top_q.has_value());
}

TEST(Percentile, EmptyIsZero) { EXPECT_EQ(percentile({}, 50), 0); }

TEST(Tally, CountsFailuresPerCheckAndKeepsGoing) {
  Tally t;
  EXPECT_EQ(t.error_rate(), 0);
  t.attempt(10);
  t.fail("feed_gap");
  t.fail("feed_gap");
  t.fail("decrypt_mismatch", 3);
  EXPECT_EQ(t.attempted(), 10u);
  EXPECT_EQ(t.failed(), 5u);
  EXPECT_DOUBLE_EQ(t.error_rate(), 0.5);
  const auto by = t.by_check();
  EXPECT_EQ(by.at("feed_gap"), 2u);
  EXPECT_EQ(by.at("decrypt_mismatch"), 3u);
}

TEST(Tally, IsThreadSafe) {
  Tally t;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < 1000; ++k) {
        t.attempt();
        if (k % 10 == 0) t.fail("err_reply");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.attempted(), 4000u);
  EXPECT_EQ(t.failed(), 400u);
}

TEST(Field, FindsWholeKeysOnly) {
  const std::string line = "@7 ok id=12 key=ab shard=0";
  EXPECT_EQ(field(line, "id"), "12");
  EXPECT_EQ(field(line, "key"), "ab");
  EXPECT_EQ(field(line, "shard"), "0");
  EXPECT_EQ(field(line, "ey"), "");
  EXPECT_EQ(field("bcast encrypt shard=0 bytes=4 ct=00ff", "ct"), "00ff");
}

}  // namespace
}  // namespace dfkybench
