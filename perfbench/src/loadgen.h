#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/query_api.h"
#include "server/client.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Per-operation outcome of an open-loop run. Latency is timed from the
/// operation's SCHEDULED send time, so a stall also charges the operations
/// queued behind it. `late_us` is the generator's own lag: how long after
/// the operation could go out (due, with its connection free) it was sent.
struct OpRecord {
  bool ok = false;           // Answered (a query) or acknowledged (insert).
  bool traced = false;       // Recorded a span (traced runs only).
  double latency_us = 0;
  double late_us = 0;
};

struct LoadResult {
  std::vector<OpRecord> ops;  // Index-aligned with RequestStream::ops.
  /// Answers of the sampled query operations, index-aligned with `sampled`.
  std::vector<size_t> sampled;
  std::vector<sgtree::QueryResult> sampled_answers;
  uint32_t connections = 0;
  double wall_s = 0;          // First due time to last completion.
  uint64_t transport_errors = 0;
};

/// Which connection sends each operation. Queries take turns on the query
/// connections. When there are inserts, connection 0 is a writer that sends
/// every insert and nothing else, so an insert never waits behind a query
/// on its own connection. The assignment is fixed by the stream alone.
std::vector<uint32_t> AssignConnections(const std::vector<Op>& ops,
                                        uint32_t connections);

/// Sends `ops` (queries index into `pool`) over `connections` TCP
/// connections to 127.0.0.1:port, each operation on its AssignConnections
/// connection at its due time. `sampled` lists op indexes whose answers are
/// kept for the correctness gate. When `spans` is non-null, every other
/// operation of each connection gets a span, so traced and untraced
/// operations see the same cache state and load, and the gap between them
/// is the tracing overhead.
LoadResult RunOpenLoop(uint16_t port,
                       const std::vector<sgtree::QueryRequest>& pool,
                       const std::vector<Op>& ops, uint32_t connections,
                       const std::vector<size_t>& sampled, SpanRecorder* spans);

/// Server-side stage numbers, scraped from the serve.* metrics over the
/// wire (Client::GetMetrics, JSON format).
struct ServerScrape {
  double request_us_p50 = 0;
  double request_us_p99 = 0;
  double exec_us_p50 = 0;
  double batch_size_mean = 0;
  double queue_depth_mean = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t hedges_fired = 0;
};

/// Parses a metrics JSON export (obs::ToJson). Returns false when a serve.*
/// metric the benchmark needs is missing.
bool ParseServerScrape(const std::string& json, ServerScrape* out);

/// Scrapes the server at `port` over a fresh connection.
bool ScrapeServer(uint16_t port, ServerScrape* out, std::string* error);

/// The p-th percentile of a bucketed histogram, interpolated linearly
/// inside the bucket that holds it (the lowest bucket starts at 0, the
/// overflow bucket is reported at its lower edge).
double HistogramPercentile(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& counts, double p);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
