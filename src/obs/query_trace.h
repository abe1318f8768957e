#ifndef SGTREE_OBS_QUERY_TRACE_H_
#define SGTREE_OBS_QUERY_TRACE_H_

#include <cstdint>
#include <string>

namespace sgtree {

/// Per-query counters: the paper's three series (% of data compared is
/// candidates_verified, random I/Os is buffer_misses; CPU time is the
/// result's elapsed_us) plus a breakdown of *why* a query cost what it did.
/// Filled by the search/join/backend code through QueryContext; aggregated
/// per batch by QueryExecutor and exported by obs::ToJson / ToPrometheus.
///
/// Counter semantics (see DESIGN.md §6 for the full contract):
///  - dir/leaf_nodes_visited: nodes actually read (one per GetNode charge;
///    for the bucketed backends a "leaf" is a bucket or posting list).
///  - signatures_tested: entry signatures a descend-or-prune decision was
///    computed for (MinDistBound, Contains, intersection, bucket bound).
///  - subtrees_descended / subtrees_pruned: outcome of those decisions. For
///    single-tree queries every tested signature resolves to exactly one of
///    the two; joins test several signatures per decision, so only
///    descended + pruned <= tested holds there.
///  - candidates_verified: leaf entries whose exact distance/predicate was
///    evaluated (the paper's "transactions compared").
///  - false_drops: verified candidates that failed the predicate — the
///    signature filter's false positives (predicate queries only; k-NN has
///    no predicate and leaves this 0).
///  - results: candidates accepted into the result set.
///  - buffer_hits / buffer_misses: split of the node reads charged to the
///    context's pool (misses == this query's random I/Os); the simulated
///    multi-page bucket reads of the table/inverted backends count every
///    page as a miss.
struct QueryTrace {
  uint64_t dir_nodes_visited = 0;
  uint64_t leaf_nodes_visited = 0;
  uint64_t signatures_tested = 0;
  uint64_t subtrees_descended = 0;
  uint64_t subtrees_pruned = 0;
  uint64_t candidates_verified = 0;
  uint64_t false_drops = 0;
  uint64_t results = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;

  uint64_t nodes_visited() const {
    return dir_nodes_visited + leaf_nodes_visited;
  }

  void Reset() { *this = QueryTrace{}; }

  QueryTrace& operator+=(const QueryTrace& other) {
    dir_nodes_visited += other.dir_nodes_visited;
    leaf_nodes_visited += other.leaf_nodes_visited;
    signatures_tested += other.signatures_tested;
    subtrees_descended += other.subtrees_descended;
    subtrees_pruned += other.subtrees_pruned;
    candidates_verified += other.candidates_verified;
    false_drops += other.false_drops;
    results += other.results;
    buffer_hits += other.buffer_hits;
    buffer_misses += other.buffer_misses;
    return *this;
  }

  friend bool operator==(const QueryTrace&, const QueryTrace&) = default;
};

/// Which consistency invariants CheckTraceInvariants enforces. The defaults
/// are what every single-tree query over a pooled context must satisfy;
/// relax them for joins (`strict_pruning = false`) and for backends without
/// a buffer pool or per-node I/O charge (`pooled = false`).
struct TraceCheckOptions {
  /// Every visited node was charged to a pool: visited == hits + misses.
  bool pooled = true;
  /// Every tested signature resolved to exactly one descend-or-prune:
  /// tested == descended + pruned, and descended == visited - 1 on a
  /// non-empty traversal (every node but the root is reached by a descend).
  bool strict_pruning = true;
  /// The query has a predicate, so verified == results + false_drops.
  /// Without one (k-NN), only verified >= results and false_drops == 0.
  bool predicate = true;
};

/// Returns an empty string when `trace` is self-consistent under `options`,
/// otherwise a semicolon-separated list of the violated invariants — the
/// differential harness in tests/test_query_trace.cc asserts on this.
inline std::string CheckTraceInvariants(const QueryTrace& trace,
                                        const TraceCheckOptions& options = {}) {
  std::string errors;
  auto fail = [&errors](const std::string& message) {
    if (!errors.empty()) errors += "; ";
    errors += message;
  };
  auto num = [](uint64_t v) { return std::to_string(v); };

  if (options.pooled &&
      trace.nodes_visited() != trace.buffer_hits + trace.buffer_misses) {
    fail("nodes_visited " + num(trace.nodes_visited()) +
         " != buffer_hits + buffer_misses " +
         num(trace.buffer_hits + trace.buffer_misses));
  }
  if (options.strict_pruning) {
    if (trace.signatures_tested !=
        trace.subtrees_descended + trace.subtrees_pruned) {
      fail("signatures_tested " + num(trace.signatures_tested) +
           " != descended + pruned " +
           num(trace.subtrees_descended + trace.subtrees_pruned));
    }
    if (trace.nodes_visited() > 0 &&
        trace.subtrees_descended != trace.nodes_visited() - 1) {
      fail("subtrees_descended " + num(trace.subtrees_descended) +
           " != nodes_visited - 1 = " + num(trace.nodes_visited() - 1));
    }
  } else if (trace.subtrees_descended + trace.subtrees_pruned >
             trace.signatures_tested) {
    fail("descended + pruned " +
         num(trace.subtrees_descended + trace.subtrees_pruned) +
         " > signatures_tested " + num(trace.signatures_tested));
  }
  if (options.predicate) {
    if (trace.candidates_verified != trace.results + trace.false_drops) {
      fail("candidates_verified " + num(trace.candidates_verified) +
           " != results + false_drops " +
           num(trace.results + trace.false_drops));
    }
  } else if (trace.false_drops != 0) {
    fail("false_drops " + num(trace.false_drops) +
         " != 0 on a predicate-free query");
  }
  if (trace.candidates_verified < trace.results) {
    fail("candidates_verified " + num(trace.candidates_verified) +
         " < results " + num(trace.results));
  }
  return errors;
}

}  // namespace sgtree

#endif  // SGTREE_OBS_QUERY_TRACE_H_
