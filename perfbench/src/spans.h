#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sync.h"
#include "report.h"

namespace perfbench {

/// One timed interval around a public call the benchmark makes. Ids start
/// at 1; parent 0 means a root span. `request` ties the spans of one
/// request (or batch) together.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint64_t request = 0;
  const char* name = "";  // A string literal: spans never own their name.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store for the traced run. Spans are recorded only while
/// enabled; disabled recorders hand out id 0 and ignore End(0), so call
/// sites need no branch. Written out once, when the run ends.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (0 when disabled).
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request)
      SGTREE_EXCLUDES(mu_);
  /// Closes span `id` now. No-op for id 0.
  void End(uint32_t id) SGTREE_EXCLUDES(mu_);

  std::vector<Span> Snapshot() const SGTREE_EXCLUDES(mu_);

  /// Writes the spans as a JSON array of {id, parent, request, name,
  /// start_ns, end_ns}, times relative to the recorder's creation.
  bool WriteJson(const std::string& path) const;

 private:
  static int64_t NowNs();

  bool enabled_ = false;
  const int64_t origin_ns_ = NowNs();
  mutable sgtree::Mutex mu_;
  std::vector<Span> spans_ SGTREE_GUARDED_BY(mu_);
};

/// RAII span; records nothing when the recorder is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint32_t parent = 0,
             uint64_t request = 0)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
};

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (parallel lanes) or
/// stick out of the parent; only the union of their intervals clipped to
/// the parent counts.
int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children);

/// Per span name: call count, total duration and total self time.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
