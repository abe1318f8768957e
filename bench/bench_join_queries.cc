// The reconstructed Section 4.2 query types (see DESIGN.md): similarity
// joins and closest pairs. Measures the synchronized tree-tree join against
// the nested-loop baseline on set data (weak directory-level bounds) and on
// fixed-dimensionality categorical data (strong bounds). Exits 1 if the
// tree join's pair count differs from the nested loop's.

#include <cstdio>

#include "bench/bench_common.h"
#include "sgtree/bulk_load.h"
#include "sgtree/join.h"

namespace sgtree::bench {
namespace {

uint64_t NestedLoopPairs(const Dataset& a, const Dataset& b, double epsilon,
                         double* ms) {
  std::vector<Signature> sa;
  std::vector<Signature> sb;
  for (const auto& txn : a.transactions) {
    sa.push_back(Signature::FromItems(txn.items, a.num_items));
  }
  for (const auto& txn : b.transactions) {
    sb.push_back(Signature::FromItems(txn.items, b.num_items));
  }
  Timer timer;
  uint64_t count = 0;
  for (const auto& x : sa) {
    for (const auto& y : sb) {
      if (Distance(x, y, Metric::kHamming) <= epsilon) ++count;
    }
  }
  *ms = timer.ElapsedMs();
  return count;
}

// Returns false if a tree join's pair count differs from the nested loop's.
bool JoinStudy(const char* name, const Dataset& da, const Dataset& db) {
  SgTreeOptions options;
  options.num_bits = da.num_items;
  options.fixed_dimensionality = da.fixed_dimensionality;
  auto ta = BulkLoad(da, options);
  auto tb = BulkLoad(db, options);

  std::printf("\n-- %s (|A|=%zu, |B|=%zu) --\n", name, da.size(), db.size());
  std::printf("%-8s %14s %14s %16s %12s\n", "eps", "pairs", "tree_ms",
              "pairs_compared", "nested_ms");
  bool matched = true;
  for (double epsilon : {1.0, 2.0, 4.0}) {
    QueryTrace trace;
    Timer timer;
    const auto pairs =
        SimilarityJoin(*ta, *tb, epsilon, QueryContext{nullptr, &trace},
                       QueryContext{nullptr, &trace});
    const double tree_ms = timer.ElapsedMs();
    double nested_ms = 0;
    const uint64_t expected = NestedLoopPairs(da, db, epsilon, &nested_ms);
    matched = matched && pairs.size() == expected;
    std::printf("%-8.0f %14zu %14.1f %16llu %12.1f%s\n", epsilon,
                pairs.size(), tree_ms,
                static_cast<unsigned long long>(trace.candidates_verified),
                nested_ms,
                pairs.size() == expected ? "" : "  RESULT MISMATCH");
  }

  Timer cp_timer;
  const auto closest = ClosestPairs(*ta, *tb, 5);
  std::printf("closest-5 pairs in %.1f ms, best distance %.0f\n",
              cp_timer.ElapsedMs(),
              closest.empty() ? -1.0 : closest.front().distance);
  return matched;
}

int Run() {
  std::printf("=== Section 4.2 (reconstructed): similarity joins and "
              "closest pairs ===\n");
  const uint32_t n = std::max<uint32_t>(1500, ScaledD(200'000) / 8);
  bool matched = true;
  {
    QuestOptions qa = PaperQuest(12, 6, 200'000, 21);
    qa.num_transactions = n;
    QuestOptions qb = qa;
    qb.seed = 22;
    const Dataset da = QuestGenerator(qa).Generate();
    const Dataset db = QuestGenerator(qb).Generate();
    matched = JoinStudy("set data (weak directory bounds)", da, db) && matched;
  }
  {
    CensusOptions ca = PaperCensus(31);
    ca.num_tuples = n;
    CensusOptions cb = PaperCensus(32);
    cb.num_tuples = n;
    const Dataset da = CensusGenerator(ca).Generate();
    const Dataset db = CensusGenerator(cb).Generate();
    matched =
        JoinStudy("categorical data (fixed-dim bounds)", da, db) && matched;
  }
  std::printf("\nHonest finding: at these data densities the directory-\n"
              "level pair bounds almost never prune (two covering\n"
              "signatures that share items admit distance-0 transaction\n"
              "pairs), so the tree join approximates the nested loop; it\n"
              "wins only when subtree coverages are (near-)disjoint — see\n"
              "JoinTest.JoinPrunesDisjointData. A plausible reason the\n"
              "published paper leaves Section 4.2's evaluation to future\n"
              "work.\n");
  return matched ? 0 : 1;
}

}  // namespace
}  // namespace sgtree::bench

int main() { return sgtree::bench::Run(); }
