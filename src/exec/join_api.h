#ifndef SGTREE_EXEC_JOIN_API_H_
#define SGTREE_EXEC_JOIN_API_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/distance.h"
#include "obs/query_trace.h"
#include "sgtree/join.h"
#include "storage/query_context.h"

namespace sgtree {

/// The collection-level half of the unified query API: one request/result
/// shape for whole-collection joins, mirroring what QueryRequest/Execute()
/// does for point queries. Callers build a JoinRequest, pick a JoinBackend
/// (src/join/ holds the concrete algorithms; shard/join_router.h picks one
/// by predicate and runs it scatter-gathered), and call ExecuteJoin() —
/// parameter validation, support checking, context wiring, pair counting,
/// and timing happen in exactly one place.
///
/// Joins stream: backends push pairs into a JoinSink (sgtree/join.h) as
/// they are found, so multi-million-pair outputs never have to materialize.
/// CollectJoin() is the convenience wrapper for callers that do want the
/// vector, sorted in the canonical (tid_a, tid_b) order every backend and
/// the sharded router are tested byte-identical under.

/// The two collection-join predicates.
enum class JoinType {
  kContainment,  // R ⋈⊆ S: items(r) ⊆ items(s); pair distance = |s| - |r|.
  kSimilarity,   // distance(r, s) within the threshold under `metric`.
};

/// One collection-level join. `metric` and `threshold` apply to
/// kSimilarity only: for Hamming the threshold is the maximum distance
/// (finite, >= 0); for the normalized metrics (Jaccard/Dice/Cosine) it is
/// the minimum similarity, in (0, 1] — internally the join runs with
/// epsilon = 1 - threshold, since Distance() returns 1 - similarity.
struct JoinRequest {
  JoinType type = JoinType::kContainment;
  Metric metric = Metric::kHamming;
  double threshold = 0.0;
};

/// Checks the request's parameters. Returns an empty string when the
/// request is well-formed, else a human-readable reason naming the
/// offending value. ExecuteJoin() calls this at the API boundary so
/// malformed parameters surface as JoinResult::error instead of asserting
/// inside the join algorithms.
std::string ValidateJoinRequest(const JoinRequest& request);

/// The epsilon handed to the distance-based join cores: the threshold
/// itself for Hamming, 1 - threshold for the normalized metrics. Only
/// meaningful on a validated kSimilarity request.
double JoinDistanceBound(const JoinRequest& request);

/// Result of one collection-level join. The pairs themselves went to the
/// caller's sink; this carries everything else.
struct JoinResult {
  uint64_t pairs = 0;     // Pairs emitted (before any sink cancellation).
  bool truncated = false; // The sink returned false and the join stopped.
  std::string backend;    // name() of the backend that ran; empty if none.
  QueryTrace trace;       // Counters aggregated across both sides.
  double elapsed_us = 0;  // Wall time (not compared by determinism tests).
  std::string error;      // Empty on success: set when validation fails or
                          // the backend does not support the request; the
                          // join is then never run.

  bool ok() const { return error.empty(); }
};

/// Uniform view of one join algorithm over two bound collections — the
/// collection-level sibling of IndexBackend. The two concrete backends
/// (tree-vs-tree, PRETTI) live in src/join/; the predicate picks between
/// them (CollectTreePairJoin, shard/join_router.h).
class JoinBackend {
 public:
  virtual ~JoinBackend() = default;

  /// Short stable identifier ("tree", "pretti"), used in results, error
  /// messages, and bench labels.
  virtual const char* name() const = 0;

  /// Empty when this backend can run `request`; otherwise a one-line
  /// reason (e.g. "pretti is a containment-only join; use the tree backend
  /// for similarity joins"). ExecuteJoin() surfaces the reason as
  /// JoinResult::error instead of letting the backend assert.
  virtual std::string SupportReason(const JoinRequest& request) const = 0;

  /// Runs the validated, supported join, streaming each matching pair to
  /// `sink` in traversal order and charging counters to `ctx`. Returns
  /// false iff the sink cancelled the join early.
  virtual bool Run(const JoinRequest& request, const QueryContext& ctx,
                   JoinSink* sink) const = 0;
};

/// The single dispatch point of the join API: validates `request`, checks
/// backend support, wires a QueryContext charging the result's trace,
/// runs the backend with a pair-counting wrapper around `sink`, and
/// stamps the wall time. `sink` may be null to only count pairs. On
/// validation or support failure the result carries `error` and the
/// backend is never invoked.
JoinResult ExecuteJoin(const JoinBackend& backend, const JoinRequest& request,
                       JoinSink* sink);

/// The canonical order collected joins are compared in: (tid_a, tid_b).
/// Tids are unique per side, so this is a total order on any pair set and
/// two equal collected joins are byte-identical vectors.
bool CanonicalPairLess(const JoinPair& x, const JoinPair& y);

/// Convenience wrapper: runs the join into `*pairs` (cleared first) and
/// sorts it canonically.
JoinResult CollectJoin(const JoinBackend& backend, const JoinRequest& request,
                       std::vector<JoinPair>* pairs);

/// Sink that appends every pair to a vector.
class VectorJoinSink : public JoinSink {
 public:
  explicit VectorJoinSink(std::vector<JoinPair>* out) : out_(out) {}
  bool OnPair(const JoinPair& pair) override {
    out_->push_back(pair);
    return true;
  }

 private:
  std::vector<JoinPair>* out_;
};

/// Sink that collects at most `limit` pairs, then cancels the join — the
/// CLI's preview mode and the cancellation tests use this.
class LimitJoinSink : public JoinSink {
 public:
  LimitJoinSink(std::vector<JoinPair>* out, uint64_t limit)
      : out_(out), limit_(limit) {}
  bool OnPair(const JoinPair& pair) override {
    if (out_->size() >= limit_) return false;
    out_->push_back(pair);
    return out_->size() < limit_;
  }

 private:
  std::vector<JoinPair>* out_;
  uint64_t limit_;
};

}  // namespace sgtree

#endif  // SGTREE_EXEC_JOIN_API_H_
