#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

namespace perfbench {

int64_t SpanRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint32_t SpanRecorder::Begin(const char* name, uint32_t parent,
                             uint64_t request) {
  if (!enabled_) return 0;
  const int64_t now = NowNs() - origin_ns_;
  sgtree::MutexLock lock(&mu_);
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = now;
  span.end_ns = now;
  spans_.push_back(span);
  return span.id;
}

void SpanRecorder::End(uint32_t id) {
  if (id == 0) return;
  const int64_t now = NowNs() - origin_ns_;
  sgtree::MutexLock lock(&mu_);
  if (id <= spans_.size()) spans_[id - 1].end_ns = now;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  sgtree::MutexLock lock(&mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \""
        << JsonEscape(s.name) << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  covered.reserve(children.size());
  for (const Span& child : children) {
    const int64_t lo = std::max(child.start_ns, parent.start_ns);
    const int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t run_lo = 0;
  int64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) union_ns += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) union_ns += run_hi - run_lo;
  return (parent.end_ns - parent.start_ns) - union_ns;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  static const std::vector<Span> kNone;
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    const auto it = children.find(s.id);
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += SelfTimeNs(s, it == children.end() ? kNone : it->second);
  }
  return totals;
}

}  // namespace perfbench
