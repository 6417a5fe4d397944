// Arithmetic of the benchmark's results: the percentile rule, medians,
// per-exchange normalisation of the program's monotonic counters, deltas
// of its log-bucketed histograms, and the JSON result line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.hpp"

namespace perfbench {

/// Highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} that has at
/// least `min_beyond` of `samples` strictly above its rank; 0 when even the
/// median is unsupported. 1,000 samples support p99, 10,000 support p99.9.
double highest_supported_percentile(std::size_t samples,
                                    std::size_t min_beyond = 10);

/// Exchanges a run must time for its p99: ten samples beyond it.
constexpr std::size_t kTailExchanges = 1000;

/// Throws std::runtime_error when `exchanges` latencies cannot support p99.
void require_p99_support(std::size_t exchanges);

/// Which slices of a measured window the timings come from, one flag per
/// slice: the quarter with the least host steal, every slice that ties
/// with it (all of them on a quiet host), then, while the chosen slices
/// hold fewer than `min_exchanges` exchanges, the next quietest ones. The
/// choice reads the host's steal counter, not the program's timings; steal
/// still grows with the guest's own demand for CPU (README.md says more).
std::vector<bool> choose_quiet_slices(const std::vector<double>& steal,
                                      const std::vector<std::size_t>& exchanges,
                                      std::size_t min_exchanges);

/// Nearest-rank percentile `p` (0..100] of `values` (sorted in place).
/// 0 for an empty input.
double percentile(std::vector<double>& values, double p);

/// Median of `values` (a copy is sorted). 0 for an empty input.
double median(std::vector<double> values);

/// (after - before) / exchanges for a monotonic counter; 0 when no
/// exchange completed or the counter went backwards (it was reset).
double per_exchange(std::uint64_t before, std::uint64_t after,
                    std::uint64_t exchanges);

/// A histogram's running totals at one instant, so a phase's mean can be
/// taken from the difference of two marks.
struct HistogramMark {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;

  static HistogramMark of(const spi::LatencyHistogram& histogram);
  HistogramMark& operator+=(const HistogramMark& other);
};

/// Mean value in microseconds recorded between two marks (0 if none).
double mean_us_between(const HistogramMark& before, const HistogramMark& after);

/// Ordered name -> (value, unit) list rendered as the result's JSON.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit);
  std::string to_json() const;
  /// Value of a metric added earlier (0 when absent).
  double get(std::string_view name) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// A JSON object built field by field, in insertion order.
class JsonObject {
 public:
  JsonObject& number(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::uint64_t value);
  JsonObject& text(std::string_view key, std::string_view value);
  /// `json` must already be valid JSON (an array, object, true, null...).
  JsonObject& raw(std::string_view key, std::string json);
  std::string str() const { return body_ + "}"; }

 private:
  std::string body_ = "{";
};

/// Shortest round-trip decimal text of a double ("null" if not finite).
std::string json_number(double value);
std::string json_string(std::string_view text);

}  // namespace perfbench
