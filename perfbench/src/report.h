#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// The percentile rule every timing in the benchmark follows: a tail
/// percentile is reported only where at least ten samples lie beyond it.
/// For n samples the nearest-rank p-th percentile has rank ceil(p n / 100),
/// so the highest supported percentile is 100 (n - 10) / n. Returns
/// min(wanted, that), and 0 when n <= 10 (only the minimum is supported).
double SupportedPercentile(size_t n, double wanted);

/// A latency summary: median and the highest supported percentile up to
/// `wanted` (see SupportedPercentile), with the sample count.
struct Summary {
  size_t samples = 0;
  double p50 = 0;
  double tail_percentile = 0;  // The percentile `tail` was taken at.
  double tail = 0;
};

/// Sorts `samples` in place and summarizes them; the tail is taken at the
/// highest supported percentile up to `wanted_tail`.
Summary Summarize(std::vector<double>& samples, double wanted_tail = 99);

/// Median of `values` (sorts in place); 0 for an empty sample.
double Median(std::vector<double> values);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The outcome of one benchmark run, printed as the last line of stdout.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Shortest round-trip decimal form of `value` ("null" when not finite).
std::string FormatNumber(double value);

/// Escapes `text` for use inside a JSON string literal.
std::string JsonEscape(const std::string& text);

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
/// {"value": v, "unit": u}, ...}} on one line.
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
