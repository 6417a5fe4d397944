#include "ledger.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double highest_supported_percentile(std::size_t samples,
                                    std::size_t min_beyond) {
  // Tenths of a percent, so the rank arithmetic stays exact.
  static constexpr std::uint64_t kLadder[] = {999, 990, 950, 900, 750, 500};
  for (std::uint64_t tenths : kLadder) {
    const std::uint64_t rank = (tenths * samples + 999) / 1000;
    if (samples - rank >= min_beyond) return static_cast<double>(tenths) / 10;
  }
  return 0.0;
}

void require_p99_support(std::size_t exchanges) {
  if (highest_supported_percentile(exchanges) < 99.0) {
    throw std::runtime_error(
        std::to_string(exchanges) + " exchanges in the measured slices; p99 "
        "needs " + std::to_string(kTailExchanges));
  }
}

std::vector<bool> choose_quiet_slices(const std::vector<double>& steal,
                                      const std::vector<std::size_t>& exchanges,
                                      std::size_t min_exchanges) {
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&steal](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  std::vector<double> ranked = steal;
  const double limit = percentile(ranked, 25);
  std::vector<bool> keep(steal.size());
  std::size_t kept = 0;
  for (std::size_t i : order) {
    if (steal[i] > limit && kept >= min_exchanges) break;
    keep[i] = true;
    kept += exchanges[i];
  }
  return keep;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double per_exchange(std::uint64_t before, std::uint64_t after,
                    std::uint64_t exchanges) {
  if (exchanges == 0 || after < before) return 0.0;
  return static_cast<double>(after - before) / static_cast<double>(exchanges);
}

HistogramMark HistogramMark::of(const spi::LatencyHistogram& histogram) {
  return HistogramMark{histogram.count(), histogram.total_ns()};
}

HistogramMark& HistogramMark::operator+=(const HistogramMark& other) {
  count += other.count;
  total_ns += other.total_ns;
  return *this;
}

double mean_us_between(const HistogramMark& before,
                       const HistogramMark& after) {
  if (after.count <= before.count) return 0.0;
  return static_cast<double>(after.total_ns - before.total_ns) / 1e3 /
         static_cast<double>(after.count - before.count);
}

void MetricSet::add(std::string name, double value, std::string unit) {
  entries_.push_back(Entry{std::move(name), value, std::move(unit)});
}

double MetricSet::get(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  return 0.0;
}

std::string MetricSet::to_json() const {
  JsonObject out;
  for (const Entry& entry : entries_) {
    out.raw(entry.name, JsonObject()
                            .number("value", entry.value)
                            .text("unit", entry.unit)
                            .str());
  }
  return out.str();
}

JsonObject& JsonObject::raw(std::string_view key, std::string json) {
  if (body_.size() > 1) body_ += ", ";
  body_ += json_string(key) + ": " + json;
  return *this;
}

JsonObject& JsonObject::number(std::string_view key, double value) {
  return raw(key, json_number(value));
}

JsonObject& JsonObject::integer(std::string_view key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::text(std::string_view key, std::string_view value) {
  return raw(key, json_string(value));
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : "null";
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
