#ifndef SGTREE_EXEC_QUERY_API_H_
#define SGTREE_EXEC_QUERY_API_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/linear_scan.h"
#include "common/signature.h"
#include "obs/query_trace.h"
#include "storage/query_context.h"

namespace sgtree {

/// The unified query API: one request/result shape for every index backend
/// (SG-tree, SG-table, inverted file, linear scan) and every execution path
/// (serial, the parallel QueryExecutor, the sharded QueryRouter, the CLI,
/// the benches). Callers build a QueryRequest, pick an IndexBackend, and
/// call Execute() — parameter validation, context wiring, and timing happen
/// in exactly one place instead of once per backend overload.

/// Query types a batch may mix freely. kKnn / kBestFirstKnn / kRange fill
/// QueryResult::neighbors; the set-predicate types fill QueryResult::ids.
enum class QueryType {
  kKnn,           // Depth-first branch-and-bound k-NN (Figure 4).
  kBestFirstKnn,  // Optimal best-first k-NN (Hjaltason & Samet).
  kRange,         // All transactions within distance epsilon.
  kContainment,   // Supersets of the query item set.
  kExact,         // Exact signature matches.
  kSubset,        // Subsets of the query item set.
};

/// One query. `k` is used by the k-NN types, `epsilon` by kRange; the
/// others need only the signature.
struct QueryRequest {
  QueryType type = QueryType::kKnn;
  Signature query;
  uint32_t k = 1;
  double epsilon = 0.0;
};

/// Result of one query.
struct QueryResult {
  std::vector<Neighbor> neighbors;  // kKnn / kBestFirstKnn / kRange.
  std::vector<uint64_t> ids;        // kContainment / kExact / kSubset.
  QueryTrace trace;                 // Per-query counters (deterministic
                                    // unless a pool stays warm across
                                    // queries).
  double elapsed_us = 0;            // Wall time of this query (not compared
                                    // by the determinism tests).
  std::string error;                // Empty on success. Set by Execute()
                                    // when the request fails validation
                                    // (e.g. k == 0, negative epsilon); the
                                    // result is then empty and untimed.

  bool ok() const { return error.empty(); }

  friend bool operator==(const QueryResult& a, const QueryResult& b) {
    return a.neighbors == b.neighbors && a.ids == b.ids &&
           a.error == b.error && a.trace == b.trace;
  }
};

/// Checks the request's parameters. Returns an empty string when the
/// request is well-formed, else a human-readable reason: k-NN types require
/// k > 0, range requires a finite non-negative epsilon. Execute() calls
/// this at the API boundary so malformed parameters surface as
/// QueryResult::error instead of asserting deep inside the search code.
std::string ValidateRequest(const QueryRequest& request);

/// Uniform view of one index structure for the unified query API. Adapters
/// for the concrete structures live in exec/index_backend.h; the sharded
/// router and the executor treat all of them identically.
class IndexBackend {
 public:
  virtual ~IndexBackend() = default;

  /// Short stable identifier ("sgtree", "sgtable", ...), used in traces,
  /// error messages, and bench labels.
  virtual const char* name() const = 0;

  /// The support matrix, with reasons: empty when this backend answers
  /// `type`, else one line saying why not and what to use instead (e.g.
  /// "sgtable indexes Hamming buckets only; ..."). Harnesses and the CLI
  /// surface the reason instead of asserting on an unsupported combo.
  virtual std::string SupportReason(QueryType type) const = 0;

  /// Whether this backend answers `type` at all. Running an unsupported
  /// type is not an error: it yields an empty result (the backend indexes
  /// nothing that could match — e.g. the SG-table has no set predicates).
  bool Supports(QueryType type) const { return SupportReason(type).empty(); }

  /// Answers `request`, filling result->neighbors or result->ids and
  /// charging node accesses / counters to `ctx`. Called with a validated
  /// request — parameter checking is Execute()'s job, not the backend's.
  virtual void Run(const QueryRequest& request, const QueryContext& ctx,
                   QueryResult* result) const = 0;
};

/// The single dispatch point of the query API: validates `request`, wires a
/// QueryContext charging `pool` and the result's own trace, runs the
/// backend, and stamps the wall time. `pool` is normally null: every node
/// read is then one random I/O, the paper's cold buffer (see QueryContext).
/// It stays a parameter for callers that read a pool's own counters, such
/// as perfbench's layer ladder. On validation failure the result is empty
/// with `error` set and the backend is never invoked.
QueryResult Execute(const IndexBackend& backend, const QueryRequest& request,
                    BufferPool* pool = nullptr);

}  // namespace sgtree

#endif  // SGTREE_EXEC_QUERY_API_H_
