// The benchmark's own tests: its percentile rule, counter normalisation,
// result JSON, and a short run of every workload.
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "ledger.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(40), 75.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(0), 0.0);
}

TEST(PercentileRule, RunWithoutP99SupportFails) {
  EXPECT_THROW(require_p99_support(kTailExchanges - 1), std::runtime_error);
  EXPECT_THROW(require_p99_support(0), std::runtime_error);
  EXPECT_NO_THROW(require_p99_support(kTailExchanges));
}

TEST(QuietSlices, QuarterWithLeastStealAndItsTies) {
  const std::vector<double> steal = {0.3, 0.0, 0.2, 0.0, 0.1, 0.4, 0.5, 0.6};
  const std::vector<std::size_t> exchanges(steal.size(), 500);
  EXPECT_EQ(choose_quiet_slices(steal, exchanges, 1000),
            (std::vector<bool>{false, true, false, true, false, false, false,
                               false}));
  // A quiet host: every slice ties.
  EXPECT_EQ(choose_quiet_slices(std::vector<double>(4, 0.0),
                                std::vector<std::size_t>(4, 1), 0),
            std::vector<bool>(4, true));
}

TEST(QuietSlices, NextQuietestUntilP99IsSupported) {
  const std::vector<double> steal = {0.3, 0.0, 0.2, 0.05, 0.1, 0.4, 0.5, 0.6};
  const std::vector<std::size_t> exchanges(steal.size(), 300);
  // The quarter (0.0, 0.05) holds 600; 0.1 and 0.2 bring it to 1,200.
  EXPECT_EQ(choose_quiet_slices(steal, exchanges, 1000),
            (std::vector<bool>{false, true, true, true, true, false, false,
                               false}));
  // Too few in the whole window: every slice, and still short of p99.
  const std::vector<bool> all =
      choose_quiet_slices(steal, std::vector<std::size_t>(8, 100), 1000);
  EXPECT_EQ(all, std::vector<bool>(8, true));
  EXPECT_THROW(require_p99_support(800), std::runtime_error);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(percentile(values, 50), 50);
  EXPECT_EQ(percentile(values, 99), 99);
  EXPECT_EQ(percentile(values, 100), 100);
  EXPECT_EQ(median({3, 1, 2}), 2);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 99), 0);
}

TEST(Normalisation, CounterDeltaPerExchange) {
  EXPECT_DOUBLE_EQ(per_exchange(10, 42, 16), 2.0);
  EXPECT_DOUBLE_EQ(per_exchange(7, 7, 100), 0.0);
  EXPECT_DOUBLE_EQ(per_exchange(5, 9, 0), 0.0);   // nothing completed
  EXPECT_DOUBLE_EQ(per_exchange(9, 5, 10), 0.0);  // counter was reset
}

TEST(Normalisation, HistogramMeanBetweenMarks) {
  spi::LatencyHistogram histogram;
  histogram.record_us(10);
  histogram.record_us(20);
  const HistogramMark before = HistogramMark::of(histogram);
  histogram.record_us(30);
  histogram.record_us(50);
  const HistogramMark after = HistogramMark::of(histogram);
  EXPECT_DOUBLE_EQ(mean_us_between(before, after), 40.0);
  EXPECT_DOUBLE_EQ(mean_us_between(after, after), 0.0);

  HistogramMark sum = before;
  sum += after;
  EXPECT_EQ(sum.count, 6u);
}

TEST(ResultJson, KeepsEveryDigit) {
  MetricSet metrics;
  metrics.add("latency_ms", 1.2034567891234, "ms");
  metrics.add("ratio", 0.1, "ratio");
  EXPECT_EQ(metrics.to_json(),
            "{\"latency_ms\": {\"value\": 1.2034567891234, \"unit\": \"ms\"}, "
            "\"ratio\": {\"value\": 0.1, \"unit\": \"ratio\"}}");
  EXPECT_EQ(metrics.get("ratio"), 0.1);
  EXPECT_EQ(json_string("a\"b"), "\"a\\\"b\"");
}

class WorkloadSmoke : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadSmoke, EndToEndRunIsCorrectAndComplete) {
  const WorkloadSpec* spec = find_workload(GetParam());
  ASSERT_NE(spec, nullptr);
  RunOptions options;
  options.seed = 7;
  options.seconds = 0.5;
  options.setups = 2;
  const RunResult result = run_workload(*spec, options);
  EXPECT_GT(result.attempted_calls, 0u);
  EXPECT_EQ(result.failed_calls, 0u);  // error_ratio == 0
  // The window grows until the quiet slices hold enough for p99.
  EXPECT_GE(result.exchanges, kTailExchanges);
  for (const char* name :
       {"calls_per_s", "exchange_p50_ms", "exchange_p99_ms", "cpu_us_per_call",
        "wire_bytes_per_call", "success_ratio", "setup_s", "peak_rss_mb"}) {
    EXPECT_GT(result.metrics.get(name), 0.0) << name;
  }
  EXPECT_EQ(result.metrics.get("success_ratio"), 1.0);
}

TEST_P(WorkloadSmoke, TracedRunDialsOnlyOnTheBlockingStack) {
  const WorkloadSpec* spec = find_workload(GetParam());
  ASSERT_NE(spec, nullptr);
  RunOptions options;
  options.seed = 7;
  options.seconds = 0.6;
  options.trace = true;
  options.setups = 1;
  const RunResult result = run_workload(*spec, options);
  EXPECT_EQ(result.failed_calls, 0u);
  const double dials = result.metrics.get("net.connections_per_exchange");
  if (spec->blocking) {
    EXPECT_NEAR(dials, 1.0, 0.02);
  } else {
    EXPECT_LT(dials, 0.02);
  }
  EXPECT_GT(result.metrics.get("http.exchange_us"), 0.0);
  EXPECT_GT(result.metrics.get("core.assembler.request_us"), 0.0);
  if (spec->proxy) {
    EXPECT_GT(result.metrics.get("proxy.self_us"), 0.0);
    EXPECT_NEAR(result.metrics.get("proxy.subpacks_per_request"), 2.0, 0.01);
  }
  if (spec->codec != "identity") {
    EXPECT_GT(result.metrics.get("codec.compression_ratio"), 1.5);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmoke,
                         ::testing::Values("pack16_async", "batch4_blocking",
                                           "pack4_text_deflate",
                                           "proxy_scatter_k2"));

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_EQ(find_workload("no_such_workload"), nullptr);
  EXPECT_EQ(all_workloads().size(), 4u);
}

}  // namespace
}  // namespace perfbench
