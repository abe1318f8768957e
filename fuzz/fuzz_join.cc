// Differential fuzz harness for the set-containment joins.
//
// The input bytes are decoded as two small set collections (R and S):
// 0xFE switches from the R side to the S side, 0xFF terminates the
// current set, and any other byte contributes item (byte mod 64) to the
// current set. Row and set sizes are capped so a hostile input cannot
// drive quadratic blowup, but empty sets, duplicate sets, and duplicate
// items — the adversarial cases for prefix and tree joins — all pass
// through.
//
// PRETTI (the containment join the join rule runs) and the tree-vs-tree
// containment join over trees built from the same sides must both agree
// exactly (pairs, distances, canonical order) with a brute-force
// containment oracle on every accepted input.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "exec/join_api.h"
#include "join/pretti_join.h"
#include "join/set_collection.h"
#include "join/tree_join.h"
#include "sgtree/sg_tree.h"

namespace {

constexpr uint32_t kItems = 64;
constexpr size_t kMaxRowsPerSide = 48;
constexpr size_t kMaxItemsPerSet = 12;

std::vector<sgtree::JoinPair> Oracle(const sgtree::Dataset& r,
                                     const sgtree::Dataset& s) {
  auto normalized = [](const sgtree::Transaction& txn) {
    std::vector<sgtree::ItemId> items = txn.items;
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    return items;
  };
  std::vector<sgtree::JoinPair> pairs;
  for (const sgtree::Transaction& tr : r.transactions) {
    const std::vector<sgtree::ItemId> ri = normalized(tr);
    for (const sgtree::Transaction& ts : s.transactions) {
      const std::vector<sgtree::ItemId> si = normalized(ts);
      if (std::includes(si.begin(), si.end(), ri.begin(), ri.end())) {
        pairs.push_back(
            {tr.tid, ts.tid, static_cast<double>(si.size() - ri.size())});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), sgtree::CanonicalPairLess);
  return pairs;
}

// Small nodes, so even a few dozen rows build a tree of several levels and
// the tree join's directory-pair pruning is exercised.
std::unique_ptr<sgtree::SgTree> BuildTree(const sgtree::Dataset& side) {
  sgtree::SgTreeOptions options;
  options.num_bits = kItems;
  options.max_entries = 4;
  auto tree = std::make_unique<sgtree::SgTree>(options);
  for (const sgtree::Transaction& txn : side.transactions) tree->Insert(txn);
  return tree;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  sgtree::Dataset sides[2];
  for (sgtree::Dataset& side : sides) side.num_items = kItems;
  size_t which = 0;
  sgtree::Transaction current;
  uint64_t next_tid[2] = {0, 1'000'000};
  auto flush = [&]() {
    if (sides[which].transactions.size() >= kMaxRowsPerSide) return;
    current.tid = next_tid[which]++;
    sides[which].transactions.push_back(current);
    current = {};
  };
  for (size_t i = 0; i < size; ++i) {
    const uint8_t byte = data[i];
    if (byte == 0xFE) {
      flush();
      which = 1;
    } else if (byte == 0xFF) {
      flush();
    } else if (current.items.size() < kMaxItemsPerSet) {
      current.items.push_back(static_cast<sgtree::ItemId>(byte % kItems));
    }
  }
  flush();

  const sgtree::SetCollection r =
      sgtree::SetCollection::FromDataset(sides[0]);
  const sgtree::SetCollection s =
      sgtree::SetCollection::FromDataset(sides[1]);
  const sgtree::InvertedPostings postings(s);
  const sgtree::PrettiJoinBackend pretti(r, postings);
  const std::unique_ptr<sgtree::SgTree> r_tree = BuildTree(sides[0]);
  const std::unique_ptr<sgtree::SgTree> s_tree = BuildTree(sides[1]);
  const sgtree::TreeJoinBackend tree(*r_tree, *s_tree);

  const std::vector<sgtree::JoinPair> expected =
      Oracle(sides[0], sides[1]);
  const sgtree::JoinRequest request{sgtree::JoinType::kContainment,
                                    sgtree::Metric::kHamming, 0.0};

  std::vector<sgtree::JoinPair> pretti_pairs;
  const sgtree::JoinResult pretti_result =
      CollectJoin(pretti, request, &pretti_pairs);
  SGTREE_ASSERT_MSG(pretti_result.ok(), "pretti refused a containment join");
  SGTREE_ASSERT_MSG(pretti_pairs == expected,
                    "pretti join diverged from the brute-force oracle");

  std::vector<sgtree::JoinPair> tree_pairs;
  const sgtree::JoinResult tree_result =
      CollectJoin(tree, request, &tree_pairs);
  SGTREE_ASSERT_MSG(tree_result.ok(), "tree refused a containment join");
  SGTREE_ASSERT_MSG(tree_pairs == expected,
                    "tree join diverged from the brute-force oracle");
  return 0;
}
