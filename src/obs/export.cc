#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

namespace sgtree {
namespace obs {
namespace {

// Shortest-ish round-trippable rendering; %g keeps integral values clean
// ("42", not "42.000000") so golden tests stay readable.
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

// A JSON number, or null for NaN/Inf (JSON has no non-finite literals).
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return FormatDouble(value);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out = "_" + out;
  return out;
}

}  // namespace

std::string ToJson(const MetricsRegistry& registry) {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const Counter* counter : registry.Counters()) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(counter->name()) << "\":" << counter->Value();
  }
  out << "},\"histograms\":{";
  first = true;
  for (const Histogram* histogram : registry.Histograms()) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(histogram->name()) << "\":{\"bounds\":[";
    const std::vector<double>& bounds = histogram->bounds();
    for (size_t i = 0; i < bounds.size(); ++i) {
      if (i > 0) out << ",";
      out << JsonNumber(bounds[i]);
    }
    out << "],\"counts\":[";
    const std::vector<uint64_t> counts = histogram->BucketCounts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out << ",";
      out << counts[i];
    }
    out << "],\"count\":" << histogram->Count()
        << ",\"sum\":" << JsonNumber(histogram->Sum())
        << ",\"p50\":" << JsonNumber(histogram->Percentile(50))
        << ",\"p95\":" << JsonNumber(histogram->Percentile(95))
        << ",\"p99\":" << JsonNumber(histogram->Percentile(99)) << "}";
  }
  out << "}}";
  return out.str();
}

std::string ToPrometheus(const MetricsRegistry& registry) {
  std::ostringstream out;
  for (const Counter* counter : registry.Counters()) {
    const std::string name = PrometheusName(counter->name());
    out << "# TYPE " << name << " counter\n";
    out << name << " " << counter->Value() << "\n";
  }
  for (const Histogram* histogram : registry.Histograms()) {
    const std::string name = PrometheusName(histogram->name());
    out << "# TYPE " << name << " histogram\n";
    const std::vector<double>& bounds = histogram->bounds();
    const std::vector<uint64_t> counts = histogram->BucketCounts();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      out << name << "_bucket{le=\"" << FormatDouble(bounds[i]) << "\"} "
          << cumulative << "\n";
    }
    cumulative += counts.back();
    out << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    out << name << "_sum " << FormatDouble(histogram->Sum()) << "\n";
    out << name << "_count " << cumulative << "\n";
  }
  return out.str();
}

std::string ToJson(const QueryTrace& trace) {
  std::ostringstream out;
  out << "{\"dir_nodes_visited\":" << trace.dir_nodes_visited
      << ",\"leaf_nodes_visited\":" << trace.leaf_nodes_visited
      << ",\"nodes_visited\":" << trace.nodes_visited()
      << ",\"signatures_tested\":" << trace.signatures_tested
      << ",\"subtrees_descended\":" << trace.subtrees_descended
      << ",\"subtrees_pruned\":" << trace.subtrees_pruned
      << ",\"candidates_verified\":" << trace.candidates_verified
      << ",\"false_drops\":" << trace.false_drops
      << ",\"results\":" << trace.results
      << ",\"buffer_hits\":" << trace.buffer_hits
      << ",\"buffer_misses\":" << trace.buffer_misses << "}";
  return out.str();
}

}  // namespace obs
}  // namespace sgtree
