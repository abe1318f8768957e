#include "sgtree/bulk_load.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "common/gray_code.h"
#include "common/rng.h"

namespace sgtree {
namespace {

// Recursive bisection: pick two far-apart seed signatures (double sweep
// from a random start) and partition the range around them; recurse until
// ranges are leaf-sized. Entries end up ordered so that nearby ranges hold
// similar signatures.
void BisectOrder(std::vector<Entry>& entries, size_t lo, size_t hi,
                 size_t leaf_target, Rng& rng) {
  if (hi - lo <= leaf_target) return;
  // Double sweep for far-apart seeds.
  size_t start = lo + rng.UniformInt(hi - lo);
  size_t seed1 = lo;
  uint32_t best = 0;
  for (size_t i = lo; i < hi; ++i) {
    const uint32_t d =
        Signature::XorCount(entries[start].sig, entries[i].sig);
    if (d >= best) {
      best = d;
      seed1 = i;
    }
  }
  size_t seed2 = lo;
  best = 0;
  for (size_t i = lo; i < hi; ++i) {
    const uint32_t d =
        Signature::XorCount(entries[seed1].sig, entries[i].sig);
    if (d >= best && i != seed1) {
      best = d;
      seed2 = i;
    }
  }
  const Signature sig1 = entries[seed1].sig;
  const Signature sig2 = entries[seed2].sig;
  // Partition: entries closer to seed1 first. Hoare-style two-pointer to
  // keep it in place and O(n).
  size_t left = lo;
  size_t right = hi;
  while (left < right) {
    const uint32_t d1 = Signature::XorCount(entries[left].sig, sig1);
    const uint32_t d2 = Signature::XorCount(entries[left].sig, sig2);
    if (d1 <= d2) {
      ++left;
    } else {
      --right;
      std::swap(entries[left], entries[right]);
    }
  }
  // Degenerate partitions (identical signatures): split in the middle.
  if (left == lo || left == hi) left = lo + (hi - lo) / 2;
  BisectOrder(entries, lo, left, leaf_target, rng);
  BisectOrder(entries, left, hi, leaf_target, rng);
}

uint64_t MixHash(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Four min-wise hashes of the item set: Jaccard-similar transactions agree
// on each with probability equal to their similarity, so sorting by the
// hash tuple clusters similar sets.
std::array<uint64_t, 4> MinHashKey(const Signature& sig, uint64_t seed) {
  std::array<uint64_t, 4> key;
  key.fill(std::numeric_limits<uint64_t>::max());
  for (uint32_t item : sig.ToItems()) {
    for (size_t j = 0; j < key.size(); ++j) {
      const uint64_t h = MixHash(item * 0x9e3779b97f4a7c15ull + seed + j);
      key[j] = std::min(key[j], h);
    }
  }
  return key;
}

}  // namespace

std::string BulkLoadOrderName(BulkLoadOrder order) {
  switch (order) {
    case BulkLoadOrder::kGrayCode:
      return "gray-code";
    case BulkLoadOrder::kClusterPartition:
      return "cluster-bisect";
    case BulkLoadOrder::kMinHash:
      return "minhash";
  }
  return "unknown";
}

std::unique_ptr<SgTree> BulkLoad(const Dataset& dataset,
                                 const SgTreeOptions& options,
                                 const BulkLoadOptions& bulk) {
  std::vector<Entry> leaf_entries;
  leaf_entries.reserve(dataset.transactions.size());
  for (const Transaction& txn : dataset.transactions) {
    leaf_entries.push_back(
        Entry{Signature::FromItems(txn.items, options.num_bits), txn.tid});
  }
  return BulkLoadEntries(std::move(leaf_entries), options, bulk);
}

std::unique_ptr<SgTree> BulkLoadEntries(std::vector<Entry> leaf_entries,
                                        const SgTreeOptions& options,
                                        const BulkLoadOptions& bulk) {
  auto tree = std::make_unique<SgTree>(options);
  const size_t total = leaf_entries.size();
  if (total == 0) return tree;
  for (const Entry& entry : leaf_entries) {
    tree->NoteTransactionArea(entry.sig.Area());
  }

  const uint32_t max_entries = tree->max_entries();
  const uint32_t min_entries = tree->min_entries();
  uint32_t target = static_cast<uint32_t>(max_entries * bulk.fill_fraction);
  target = std::clamp(target, std::max(min_entries, 1u), max_entries);

  switch (bulk.order) {
    case BulkLoadOrder::kGrayCode:
      // Gray-code order clusters bitmaps that differ in few low bits.
      std::sort(leaf_entries.begin(), leaf_entries.end(),
                [](const Entry& a, const Entry& b) {
                  return GrayLess(a.sig, b.sig);
                });
      break;
    case BulkLoadOrder::kClusterPartition: {
      Rng rng(bulk.seed);
      BisectOrder(leaf_entries, 0, leaf_entries.size(), target, rng);
      break;
    }
    case BulkLoadOrder::kMinHash: {
      std::vector<std::pair<std::array<uint64_t, 4>, size_t>> keyed;
      keyed.reserve(leaf_entries.size());
      for (size_t i = 0; i < leaf_entries.size(); ++i) {
        keyed.emplace_back(MinHashKey(leaf_entries[i].sig, bulk.seed), i);
      }
      std::sort(keyed.begin(), keyed.end());
      std::vector<Entry> ordered;
      ordered.reserve(leaf_entries.size());
      for (const auto& [key, index] : keyed) {
        ordered.push_back(std::move(leaf_entries[index]));
      }
      leaf_entries = std::move(ordered);
      break;
    }
  }

  // Packs `n` items into new nodes at `level`, calling append(node, i) for
  // item i: `target` items a node, except that the final node absorbs a
  // tail of at most max_entries, and a node shrinks so the tail keeps at
  // least min_entries (since min <= max/2, every node stays within
  // [min_entries, max_entries]).
  auto pack = [&](uint16_t level, size_t n, auto append) {
    std::vector<PageId> ids;
    for (size_t i = 0; i < n;) {
      const size_t rest = n - i;
      size_t take = rest <= max_entries ? rest : target;
      if (rest > max_entries && rest - take < min_entries) {
        take = rest - min_entries;
      }
      const PageId id = tree->AllocateNode(level);
      MutableNodeView node = tree->MutableNode(id);
      for (const size_t end = i + take; i < end; ++i) append(node, i);
      ids.push_back(id);
    }
    return ids;
  };

  // Leaves, then one directory level at a time over the previous level's
  // nodes; each directory entry carries the OR of its child's entries.
  std::vector<PageId> level_ids =
      pack(0, total, [&](MutableNodeView& node, size_t i) {
        node.Append(leaf_entries[i].sig.words(), leaf_entries[i].ref);
      });
  uint16_t level = 0;
  while (level_ids.size() > 1) {
    const std::vector<PageId> children = std::move(level_ids);
    level_ids = pack(++level, children.size(),
                     [&](MutableNodeView& node, size_t i) {
                       node.AppendCover(tree->GetNodeNoCharge(children[i]),
                                        children[i]);
                     });
  }
  tree->SetRoot(level_ids[0], level + 1u, total);
  return tree;
}

}  // namespace sgtree
