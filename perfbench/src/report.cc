#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/percentile.h"

namespace perfbench {

double SupportedPercentile(size_t n, double wanted) {
  if (n <= 10) return 0;
  const double highest =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return std::min(wanted, highest);
}

Summary Summarize(std::vector<double>& samples, double wanted_tail) {
  Summary summary;
  summary.samples = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  summary.p50 = sgtree::obs::NearestRankPercentile(samples, 50);
  // Ranks in integers: a floating-point percentile of 100 (n - 10) / n can
  // round up one rank and leave only nine samples beyond it.
  auto wanted_rank = static_cast<size_t>(
      std::ceil(wanted_tail * static_cast<double>(n) / 100.0));
  wanted_rank = std::clamp<size_t>(wanted_rank, 1, n);
  const size_t rank = n > 10 ? std::min(wanted_rank, n - 10) : 1;
  summary.tail_percentile = SupportedPercentile(n, wanted_tail);
  summary.tail = samples[rank - 1];
  return summary;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, r.ptr);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(m.name) + "\": {\"value\": " +
           FormatNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
