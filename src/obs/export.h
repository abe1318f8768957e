#ifndef SGTREE_OBS_EXPORT_H_
#define SGTREE_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "obs/query_trace.h"

namespace sgtree {
namespace obs {

/// JSON object with every registered metric:
/// {"counters": {name: value, ...},
///  "histograms": {name: {"bounds": [...], "counts": [...], "count": n,
///                        "sum": s, "p50": x, "p95": x, "p99": x}, ...}}
/// `counts` has one entry per finite bound plus the overflow bucket.
/// Non-finite numbers (empty-histogram percentiles, overflow-bucket
/// percentiles) are emitted as null.
std::string ToJson(const MetricsRegistry& registry);

/// Prometheus text exposition format: counters as `# TYPE name counter`,
/// histograms as cumulative `name_bucket{le="..."}` series (including
/// le="+Inf") plus `name_sum` / `name_count`. Metric names are sanitized to
/// [a-zA-Z0-9_:] as the format requires.
std::string ToPrometheus(const MetricsRegistry& registry);

/// JSON object with the trace's counters plus derived "nodes_visited".
std::string ToJson(const QueryTrace& trace);

}  // namespace obs
}  // namespace sgtree

#endif  // SGTREE_OBS_EXPORT_H_
