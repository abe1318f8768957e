// The differential harness locking down the observability layer (DESIGN.md
// §6): every query type on every backend must fill a self-consistent
// QueryTrace, and tracing must never change results or the buffer pool's
// traffic.

#include "obs/query_trace.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "inverted/inverted_index.h"
#include "sgtable/sg_table.h"
#include "sgtree/join.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomItems;
using ::sgtree::testing::RandomSignature;

// ---------------------------------------------------------------------------
// SG-tree queries: the strict invariants hold for every query type.
// ---------------------------------------------------------------------------

enum class TreeQuery {
  kNearest,
  kKnn,
  kBestFirstKnn,
  kRange,
  kContainment,
  kExact,
  kSubset,
};

constexpr TreeQuery kAllTreeQueries[] = {
    TreeQuery::kNearest, TreeQuery::kKnn,   TreeQuery::kBestFirstKnn,
    TreeQuery::kRange,   TreeQuery::kContainment,
    TreeQuery::kExact,   TreeQuery::kSubset,
};

const char* TreeQueryName(TreeQuery type) {
  switch (type) {
    case TreeQuery::kNearest: return "Nearest";
    case TreeQuery::kKnn: return "Knn";
    case TreeQuery::kBestFirstKnn: return "BestFirstKnn";
    case TreeQuery::kRange: return "Range";
    case TreeQuery::kContainment: return "Containment";
    case TreeQuery::kExact: return "Exact";
    case TreeQuery::kSubset: return "Subset";
  }
  return "?";
}

/// k-NN queries have no predicate to fail, so false_drops stays 0; the
/// others verify candidates against an exact predicate.
bool HasPredicate(TreeQuery type) {
  return type == TreeQuery::kRange || type == TreeQuery::kContainment ||
         type == TreeQuery::kExact || type == TreeQuery::kSubset;
}

/// Normalized output so every query type can be compared the same way.
struct RunOutput {
  std::vector<Neighbor> neighbors;
  std::vector<uint64_t> ids;

  friend bool operator==(const RunOutput&, const RunOutput&) = default;
};

RunOutput RunTreeQuery(const SgTree& tree, TreeQuery type, const Signature& q,
                       double epsilon, const QueryContext& ctx) {
  RunOutput out;
  switch (type) {
    case TreeQuery::kNearest:
      out.neighbors.push_back(DfsNearest(tree, q, ctx));
      break;
    case TreeQuery::kKnn:
      out.neighbors = DfsKNearest(tree, q, 5, ctx);
      break;
    case TreeQuery::kBestFirstKnn:
      out.neighbors = BestFirstKNearest(tree, q, 5, ctx);
      break;
    case TreeQuery::kRange:
      out.neighbors = RangeSearch(tree, q, epsilon, ctx);
      break;
    case TreeQuery::kContainment:
      out.ids = ContainmentSearch(tree, q, ctx);
      break;
    case TreeQuery::kExact:
      out.ids = ExactSearch(tree, q, ctx);
      break;
    case TreeQuery::kSubset:
      out.ids = SubsetSearch(tree, q, ctx);
      break;
  }
  return out;
}

struct TreeFixture {
  Dataset dataset;
  std::unique_ptr<SgTree> tree;
  std::vector<Signature> queries;
};

// Frames of the caller-owned pools below.
constexpr uint32_t kPoolFrames = 16;

TreeFixture MakeTreeFixture(uint64_t seed, Metric metric,
                            uint32_t num_transactions = 900,
                            uint32_t num_queries = 8) {
  TreeFixture f;
  f.dataset = ClusteredDataset(seed, num_transactions, 200, 8, 10, 3);
  SgTreeOptions options;
  options.num_bits = 200;
  options.max_entries = 10;
  options.metric = metric;
  f.tree = std::make_unique<SgTree>(options);
  for (const Transaction& txn : f.dataset.transactions) f.tree->Insert(txn);
  Rng rng(seed ^ 0xace);
  for (uint32_t i = 0; i < num_queries; ++i) {
    Signature sig = RandomSignature(rng, 200, 0.04);
    // Every third query reuses an indexed signature so exact / containment
    // queries actually produce results (and false-drop accounting is
    // exercised on both outcomes).
    if (i % 3 == 0) {
      const auto& txn =
          f.dataset.transactions[rng.UniformInt(f.dataset.size())];
      sig = Signature::FromItems(txn.items, 200);
    }
    if (sig.Empty()) sig.Set(3);
    f.queries.push_back(std::move(sig));
  }
  return f;
}

class TreeTraceTest : public ::testing::TestWithParam<Metric> {};

TEST_P(TreeTraceTest, EveryQueryTypeSatisfiesStrictInvariants) {
  TreeFixture f = MakeTreeFixture(17, GetParam());
  const double epsilon = GetParam() == Metric::kHamming ? 6.0 : 0.4;
  for (const TreeQuery type : kAllTreeQueries) {
    for (size_t i = 0; i < f.queries.size(); ++i) {
      BufferPool pool(kPoolFrames);  // Cold per query.
      QueryTrace trace;
      RunTreeQuery(*f.tree, type, f.queries[i], epsilon,
                   QueryContext{&pool, &trace});
      TraceCheckOptions opts;
      opts.predicate = HasPredicate(type);
      EXPECT_EQ(CheckTraceInvariants(trace, opts), "")
          << TreeQueryName(type) << " query " << i;
      EXPECT_GT(trace.nodes_visited(), 0u);
    }
  }
}

TEST_P(TreeTraceTest, TracingNeverChangesResultsOrLegacyCounters) {
  TreeFixture f = MakeTreeFixture(18, GetParam());
  const double epsilon = GetParam() == Metric::kHamming ? 6.0 : 0.4;
  for (const TreeQuery type : kAllTreeQueries) {
    for (size_t i = 0; i < f.queries.size(); ++i) {
      // Metrics "off": the pool is charged, no trace is kept.
      BufferPool pool_off(kPoolFrames);
      const RunOutput off = RunTreeQuery(*f.tree, type, f.queries[i], epsilon,
                                         QueryContext{&pool_off, nullptr});

      BufferPool pool_on(kPoolFrames);
      QueryTrace trace;  // Metrics "on".
      const RunOutput on = RunTreeQuery(*f.tree, type, f.queries[i], epsilon,
                                        QueryContext{&pool_on, &trace});

      EXPECT_EQ(on, off) << TreeQueryName(type) << " query " << i;
      // The same reads left the same pages resident.
      EXPECT_EQ(pool_on.ResidentPages(), pool_off.ResidentPages());
      EXPECT_EQ(pool_on.ResidentPages(),
                std::min<uint64_t>(trace.buffer_misses, kPoolFrames));

      // A fully-null context (no pool, no trace) still returns identical
      // values.
      const RunOutput bare =
          RunTreeQuery(*f.tree, type, f.queries[i], epsilon, QueryContext{});
      EXPECT_EQ(bare, off) << TreeQueryName(type) << " query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, TreeTraceTest,
                         ::testing::Values(Metric::kHamming, Metric::kJaccard),
                         [](const auto& info) {
                           return MetricName(info.param);
                         });

TEST(TreeTraceTest, WarmPoolSatisfiesPooledInvariant) {
  // A caller-owned pool that is never cleared between queries: the trace
  // still splits every node access into exactly one hit or miss.
  const TreeFixture f = MakeTreeFixture(19, Metric::kHamming);
  BufferPool pool(64);
  const SgTree& tree = *f.tree;  // Const ref: the thread-safe entry point.
  QueryTrace total;
  for (const TreeQuery type : kAllTreeQueries) {
    for (size_t i = 0; i < f.queries.size(); ++i) {
      QueryTrace trace;
      const QueryContext ctx{&pool, &trace};
      RunTreeQuery(tree, type, f.queries[i], 6.0, ctx);
      TraceCheckOptions opts;
      opts.predicate = HasPredicate(type);
      EXPECT_EQ(CheckTraceInvariants(trace, opts), "")
          << TreeQueryName(type) << " query " << i;
      total += trace;
    }
  }
  // The pool stays warm across queries, so later queries must have hits.
  EXPECT_GT(total.buffer_hits, 0u);
}

TEST(TreeTraceTest, BufferMissesMatchLegacyIoStatsOnColdCache) {
  // The Figure 6 protocol: per-query random I/O against a cold 16-frame
  // buffer. A query reads no node twice, so the cold pool misses on every
  // read, as a context with no pool counts it, traced or not.
  TreeFixture f = MakeTreeFixture(20, Metric::kHamming);
  for (const Signature& q : f.queries) {
    BufferPool untraced_pool(kPoolFrames);
    const auto untraced_result =
        DfsKNearest(*f.tree, q, 5, QueryContext{&untraced_pool, nullptr});

    BufferPool pool(kPoolFrames);
    QueryTrace trace;
    const auto traced_result =
        DfsKNearest(*f.tree, q, 5, QueryContext{&pool, &trace});

    QueryTrace no_pool;
    DfsKNearest(*f.tree, q, 5, QueryContext{nullptr, &no_pool});

    EXPECT_EQ(traced_result, untraced_result);
    EXPECT_EQ(trace.buffer_hits, 0u);
    EXPECT_EQ(trace.buffer_misses, no_pool.buffer_misses);
    EXPECT_EQ(trace.buffer_misses, trace.nodes_visited());
  }
}

// ---------------------------------------------------------------------------
// Joins: several signature pairs feed one descend decision, so only the
// relaxed pruning inequality holds; everything else stays strict.
// ---------------------------------------------------------------------------

TEST(JoinTraceTest, SimilarityJoinTracesAreConsistent) {
  TreeFixture fa = MakeTreeFixture(41, Metric::kHamming, 300);
  TreeFixture fb = MakeTreeFixture(42, Metric::kHamming, 300);
  QueryTrace ta, tb;
  // Page ids are tree-local: each side reads through a pool of its own.
  BufferPool pa(kPoolFrames);
  BufferPool pb(kPoolFrames);
  const auto pairs = SimilarityJoin(*fa.tree, *fb.tree, 4.0,
                                    QueryContext{&pa, &ta},
                                    QueryContext{&pb, &tb});
  TraceCheckOptions join_opts;
  join_opts.strict_pruning = false;
  EXPECT_EQ(CheckTraceInvariants(ta, join_opts), "");
  EXPECT_EQ(CheckTraceInvariants(tb, join_opts), "");

  // Pair-level counters land in the primary (first) trace.
  EXPECT_EQ(ta.results, pairs.size());
  EXPECT_EQ(tb.results, 0u);
  EXPECT_GT(ta.candidates_verified, 0u);

  // Differential: funnelling both sides into one trace sums the two.
  BufferPool pa2(kPoolFrames);
  BufferPool pb2(kPoolFrames);
  QueryTrace combined;
  const auto again = SimilarityJoin(*fa.tree, *fb.tree, 4.0,
                                    QueryContext{&pa2, &combined},
                                    QueryContext{&pb2, &combined});
  EXPECT_EQ(again, pairs);
  QueryTrace sum = ta;
  sum += tb;
  EXPECT_EQ(combined, sum);
}

TEST(JoinTraceTest, ClosestPairsTracesAreConsistent) {
  TreeFixture fa = MakeTreeFixture(43, Metric::kHamming, 300);
  TreeFixture fb = MakeTreeFixture(44, Metric::kHamming, 300);
  QueryTrace ta, tb;
  BufferPool pa(kPoolFrames);
  BufferPool pb(kPoolFrames);
  const auto best = ClosestPairs(*fa.tree, *fb.tree, 10,
                                 QueryContext{&pa, &ta},
                                 QueryContext{&pb, &tb});
  TraceCheckOptions join_opts;
  join_opts.strict_pruning = false;
  join_opts.predicate = false;  // k-closest-pairs has no predicate.
  EXPECT_EQ(CheckTraceInvariants(ta, join_opts), "");
  EXPECT_EQ(CheckTraceInvariants(tb, join_opts), "");
  EXPECT_EQ(ta.results, best.size());
  EXPECT_GE(ta.candidates_verified, ta.results);

  BufferPool pa2(kPoolFrames);
  BufferPool pb2(kPoolFrames);
  QueryTrace combined;
  EXPECT_EQ(ClosestPairs(*fa.tree, *fb.tree, 10,
                         QueryContext{&pa2, &combined},
                         QueryContext{&pb2, &combined}),
            best);
  QueryTrace sum = ta;
  sum += tb;
  EXPECT_EQ(combined, sum);
}

// ---------------------------------------------------------------------------
// SG-table: buckets are leaves read through simulated multi-page I/O (no
// pool), but the descend-or-prune arithmetic is exact.
// ---------------------------------------------------------------------------

TEST(TableTraceTest, KnnAndRangeTracesAreConsistent) {
  const Dataset dataset = ClusteredDataset(21, 800, 150, 6, 9, 2);
  SgTableOptions topt;
  topt.clustering.num_signatures = 8;
  const SgTable table(dataset, topt);
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    Signature q = RandomSignature(rng, 150, 0.05);
    if (q.Empty()) q.Set(0);

    QueryTrace knn_trace;
    const auto knn = table.KNearest(q, 3, QueryContext{nullptr, &knn_trace});
    TraceCheckOptions opts;
    opts.pooled = false;          // Simulated reads: misses >= buckets read.
    opts.strict_pruning = false;  // Buckets have no root node.
    opts.predicate = false;
    EXPECT_EQ(CheckTraceInvariants(knn_trace, opts), "") << "query " << i;
    // Every bounded bucket resolves to exactly one descend-or-prune, and
    // every descend reads one bucket — the table's analogue of the tree's
    // strict identity, minus the root.
    EXPECT_EQ(knn_trace.signatures_tested,
              knn_trace.subtrees_descended + knn_trace.subtrees_pruned);
    EXPECT_EQ(knn_trace.subtrees_descended, knn_trace.nodes_visited());
    EXPECT_EQ(knn_trace.dir_nodes_visited, 0u);
    EXPECT_GE(knn_trace.buffer_misses, knn_trace.nodes_visited());
    EXPECT_EQ(knn_trace.results, knn.size());
    EXPECT_EQ(table.KNearest(q, 3), knn) << "query " << i;  // Untraced.

    QueryTrace range_trace;
    const auto range =
        table.Range(q, 5.0, QueryContext{nullptr, &range_trace});
    opts.predicate = true;
    EXPECT_EQ(CheckTraceInvariants(range_trace, opts), "") << "query " << i;
    EXPECT_EQ(range_trace.signatures_tested,
              range_trace.subtrees_descended + range_trace.subtrees_pruned);
    EXPECT_EQ(range_trace.results, range.size());
    EXPECT_EQ(table.Range(q, 5.0), range) << "query " << i;  // Untraced.
  }
}

// ---------------------------------------------------------------------------
// Inverted file: posting lists are leaves, there is no signature pruning,
// and candidate accumulation is the verification step.
// ---------------------------------------------------------------------------

TEST(InvertedTraceTest, AllQueryTypesProduceConsistentTraces) {
  const Dataset dataset = ClusteredDataset(22, 800, 150, 6, 9, 2);
  const InvertedIndex index(dataset);
  Rng rng(6);
  TraceCheckOptions opts;
  opts.pooled = false;
  opts.strict_pruning = false;
  for (int i = 0; i < 8; ++i) {
    // Non-empty queries only: an empty Containing query answers from the
    // tid list without reading (or counting) anything.
    const std::vector<ItemId> items = RandomItems(rng, 150, 4);

    struct Case {
      const char* name;
      bool predicate;
      QueryTrace trace;
      uint64_t results;
    };
    std::vector<Case> cases;

    {
      Case c{"Containing", true, {}, 0};
      const auto got =
          index.Containing(items, QueryContext{nullptr, &c.trace});
      EXPECT_EQ(index.Containing(items), got);
      c.results = got.size();
      cases.push_back(std::move(c));
    }
    {
      Case c{"ContainedIn", true, {}, 0};
      const auto got =
          index.ContainedIn(items, QueryContext{nullptr, &c.trace});
      EXPECT_EQ(index.ContainedIn(items), got);
      c.results = got.size();
      cases.push_back(std::move(c));
    }
    {
      Case c{"KNearest", false, {}, 0};
      const auto got =
          index.KNearest(items, 4, QueryContext{nullptr, &c.trace});
      EXPECT_EQ(index.KNearest(items, 4), got);
      c.results = got.size();
      cases.push_back(std::move(c));
    }
    {
      Case c{"Range", true, {}, 0};
      const auto got =
          index.Range(items, 6.0, QueryContext{nullptr, &c.trace});
      EXPECT_EQ(index.Range(items, 6.0), got);
      c.results = got.size();
      cases.push_back(std::move(c));
    }

    for (const Case& c : cases) {
      opts.predicate = c.predicate;
      EXPECT_EQ(CheckTraceInvariants(c.trace, opts), "")
          << c.name << " query " << i;
      EXPECT_EQ(c.trace.results, c.results) << c.name;
      // One "leaf" per posting list read; no directory, no pruning.
      EXPECT_EQ(c.trace.leaf_nodes_visited, items.size()) << c.name;
      EXPECT_EQ(c.trace.dir_nodes_visited, 0u) << c.name;
      EXPECT_EQ(c.trace.signatures_tested, 0u) << c.name;
      EXPECT_EQ(c.trace.subtrees_descended, 0u) << c.name;
      EXPECT_EQ(c.trace.subtrees_pruned, 0u) << c.name;
      EXPECT_GE(c.trace.buffer_misses, c.trace.nodes_visited()) << c.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Linear scan: the honest baseline — every transaction verified, nothing
// visited or pruned.
// ---------------------------------------------------------------------------

TEST(LinearScanTraceTest, FullScanVerifiesEverythingAndPrunesNothing) {
  const Dataset dataset = ClusteredDataset(23, 500, 150, 6, 9, 2);
  const LinearScan scan(dataset);
  Rng rng(7);
  TraceCheckOptions opts;
  opts.pooled = false;  // No nodes, no pool.
  for (int i = 0; i < 6; ++i) {
    Signature q = RandomSignature(rng, 150, 0.05);
    if (q.Empty()) q.Set(0);

    auto check = [&](const QueryTrace& trace, uint64_t results,
                     bool predicate, const char* name) {
      opts.predicate = predicate;
      EXPECT_EQ(CheckTraceInvariants(trace, opts), "")
          << name << " query " << i;
      EXPECT_EQ(trace.candidates_verified, scan.size()) << name;
      EXPECT_EQ(trace.nodes_visited(), 0u) << name;
      EXPECT_EQ(trace.signatures_tested, 0u) << name;
      EXPECT_EQ(trace.buffer_misses, 0u) << name;
      EXPECT_EQ(trace.results, results) << name;
    };

    QueryTrace trace;
    const QueryContext ctx{nullptr, &trace};
    const Neighbor nn = scan.Nearest(q, Metric::kHamming, ctx);
    EXPECT_EQ(nn, scan.Nearest(q));
    check(trace, 1, /*predicate=*/false, "Nearest");

    trace.Reset();
    const auto knn = scan.KNearest(q, 7, Metric::kHamming, ctx);
    EXPECT_EQ(knn, scan.KNearest(q, 7));
    check(trace, knn.size(), /*predicate=*/false, "KNearest");

    trace.Reset();
    const auto range = scan.Range(q, 6.0, Metric::kHamming, ctx);
    EXPECT_EQ(range, scan.Range(q, 6.0));
    check(trace, range.size(), /*predicate=*/true, "Range");

    trace.Reset();
    const auto sup = scan.Containing(q, ctx);
    EXPECT_EQ(sup, scan.Containing(q));
    check(trace, sup.size(), /*predicate=*/true, "Containing");

    trace.Reset();
    const auto sub = scan.ContainedIn(q, ctx);
    EXPECT_EQ(sub, scan.ContainedIn(q));
    check(trace, sub.size(), /*predicate=*/true, "ContainedIn");
  }
}

// ---------------------------------------------------------------------------
// QueryTrace arithmetic and the checker itself.
// ---------------------------------------------------------------------------

TEST(QueryTraceTest, AggregationSumsEveryFieldAndResetZeroes) {
  QueryTrace a;
  a.dir_nodes_visited = 1;
  a.leaf_nodes_visited = 2;
  a.signatures_tested = 3;
  a.subtrees_descended = 4;
  a.subtrees_pruned = 5;
  a.candidates_verified = 6;
  a.false_drops = 7;
  a.results = 8;
  a.buffer_hits = 9;
  a.buffer_misses = 10;
  EXPECT_EQ(a.nodes_visited(), 3u);

  QueryTrace b = a;
  b += a;
  EXPECT_EQ(b.dir_nodes_visited, 2u);
  EXPECT_EQ(b.leaf_nodes_visited, 4u);
  EXPECT_EQ(b.signatures_tested, 6u);
  EXPECT_EQ(b.subtrees_descended, 8u);
  EXPECT_EQ(b.subtrees_pruned, 10u);
  EXPECT_EQ(b.candidates_verified, 12u);
  EXPECT_EQ(b.false_drops, 14u);
  EXPECT_EQ(b.results, 16u);
  EXPECT_EQ(b.buffer_hits, 18u);
  EXPECT_EQ(b.buffer_misses, 20u);

  a.Reset();
  EXPECT_EQ(a, QueryTrace{});
}

TEST(QueryTraceTest, CheckerReportsEveryViolation) {
  EXPECT_EQ(CheckTraceInvariants(QueryTrace{}), "");

  QueryTrace bad;
  bad.signatures_tested = 5;  // Tested but neither descended nor pruned.
  bad.results = 3;            // More results than verified candidates.
  const std::string errors = CheckTraceInvariants(bad);
  EXPECT_NE(errors.find("signatures_tested"), std::string::npos) << errors;
  EXPECT_NE(errors.find("candidates_verified"), std::string::npos) << errors;

  // The relaxed join mode still rejects more outcomes than tests.
  QueryTrace join_bad;
  join_bad.subtrees_pruned = 2;
  TraceCheckOptions join_opts;
  join_opts.strict_pruning = false;
  EXPECT_NE(CheckTraceInvariants(join_bad, join_opts), "");

  // A predicate-free query must not report false drops.
  QueryTrace knn_bad;
  knn_bad.candidates_verified = 2;
  knn_bad.false_drops = 1;
  TraceCheckOptions knn_opts;
  knn_opts.predicate = false;
  EXPECT_NE(CheckTraceInvariants(knn_bad, knn_opts), "");
}

}  // namespace
}  // namespace sgtree
