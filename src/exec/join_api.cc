#include "exec/join_api.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/stats.h"

namespace sgtree {
namespace {

std::string FormatDouble(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

// Counts every emitted pair on behalf of JoinResult, then forwards to the
// caller's sink (if any). This is what keeps `pairs` consistent across
// backends without each algorithm counting for itself.
class MeteredSink : public JoinSink {
 public:
  MeteredSink(JoinSink* inner, uint64_t* pairs)
      : inner_(inner), pairs_(pairs) {}
  bool OnPair(const JoinPair& pair) override {
    ++*pairs_;
    return inner_ == nullptr || inner_->OnPair(pair);
  }

 private:
  JoinSink* inner_;
  uint64_t* pairs_;
};

}  // namespace

std::string ValidateJoinRequest(const JoinRequest& request) {
  if (request.type == JoinType::kContainment) {
    return std::string();  // Predicate-only: nothing to validate.
  }
  if (std::isnan(request.threshold)) {
    return "threshold must be a number for similarity joins, got NaN";
  }
  switch (request.metric) {
    case Metric::kHamming:
      if (std::isinf(request.threshold) || request.threshold < 0.0) {
        return "threshold must be a finite distance >= 0 for hamming "
               "similarity joins, got " +
               FormatDouble(request.threshold);
      }
      break;
    case Metric::kJaccard:
    case Metric::kDice:
    case Metric::kCosine:
      if (!(request.threshold > 0.0) || request.threshold > 1.0) {
        return "threshold must be in (0,1] for " + MetricName(request.metric) +
               " similarity joins, got " + FormatDouble(request.threshold);
      }
      break;
  }
  return std::string();
}

double JoinDistanceBound(const JoinRequest& request) {
  if (request.metric == Metric::kHamming) return request.threshold;
  return 1.0 - request.threshold;
}

JoinResult ExecuteJoin(const JoinBackend& backend, const JoinRequest& request,
                       JoinSink* sink) {
  JoinResult result;
  result.error = ValidateJoinRequest(request);
  if (!result.ok()) return result;
  result.error = backend.SupportReason(request);
  if (!result.ok()) return result;

  result.backend = backend.name();
  const QueryContext ctx{nullptr, &result.trace};
  MeteredSink metered(sink, &result.pairs);
  Timer timer;
  result.truncated = !backend.Run(request, ctx, &metered);
  result.elapsed_us = timer.ElapsedMs() * 1000.0;
  return result;
}

bool CanonicalPairLess(const JoinPair& x, const JoinPair& y) {
  if (x.tid_a != y.tid_a) return x.tid_a < y.tid_a;
  return x.tid_b < y.tid_b;
}

JoinResult CollectJoin(const JoinBackend& backend, const JoinRequest& request,
                       std::vector<JoinPair>* pairs) {
  pairs->clear();
  VectorJoinSink sink(pairs);
  JoinResult result = ExecuteJoin(backend, request, &sink);
  std::sort(pairs->begin(), pairs->end(), CanonicalPairLess);
  return result;
}

}  // namespace sgtree
