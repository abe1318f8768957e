#include "shard/sharded_index.h"

#include <fstream>
#include <functional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "static/static_tree_builder.h"

namespace sgtree {
namespace {

// Sanity cap for manifest parsing: far above any sensible deployment, low
// enough that a corrupt manifest cannot make Load allocate wildly.
constexpr uint32_t kMaxShards = 4096;

// Runs fn(0) .. fn(n-1) concurrently, one thread per shard. Shards are
// independent structures, so per-shard work is race-free by construction;
// the single-shard case stays on the calling thread.
void ParallelOverShards(uint32_t n, const std::function<void(uint32_t)>& fn) {
  if (n <= 1) {
    if (n == 1) fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (uint32_t i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

}  // namespace

uint32_t ShardedIndex::ShardOf(uint64_t tid, uint32_t num_shards) {
  SGTREE_ASSERT_MSG(num_shards > 0, "ShardOf requires at least one shard");
  // splitmix64 finalizer: tids are often dense sequences, so the raw value
  // mod N would stripe systematically; the mixer makes the partition
  // uniform while staying a pure function of (tid, N).
  uint64_t x = tid + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x % num_shards);
}

ShardedIndex::ShardedIndex(const ShardedIndexOptions& options)
    : options_(options) {
  SGTREE_ASSERT_MSG(options.num_shards > 0, "num_shards must be positive");
  trees_.reserve(options.num_shards);
  shards_.reserve(options.num_shards);
  for (uint32_t i = 0; i < options.num_shards; ++i) {
    trees_.push_back(std::make_unique<SgTree>(options.tree));
    shards_.push_back(trees_.back().get());
  }
}

ShardedIndex::~ShardedIndex() = default;

std::unique_ptr<ShardedIndex> ShardedIndex::OpenDurable(
    Env* env, const std::string& dir, const ShardedIndexOptions& options,
    std::string* error) {
  SGTREE_ASSERT_MSG(options.num_shards > 0, "num_shards must be positive");
  if (!env->FileExists(dir) && !env->CreateDir(dir)) {
    if (error != nullptr) *error = "cannot create shard root " + dir;
    return nullptr;
  }
  // A directory that already holds shard-0 .. shard-(n-1) opens as those n
  // shards, as Load takes the count from its manifest; num_shards sizes
  // only a new directory. Asking for more than it holds is refused: the
  // directory may be left over from a creation that failed part way.
  uint32_t existing = 0;
  while (env->FileExists(ShardDirFor(dir, existing))) ++existing;
  if (existing > 0 && existing < options.num_shards) {
    if (error != nullptr) {
      *error = dir + " holds " + std::to_string(existing) +
               " shard(s), fewer than the " +
               std::to_string(options.num_shards) + " asked for";
    }
    return nullptr;
  }
  std::unique_ptr<ShardedIndex> index(new ShardedIndex());
  index->options_ = options;
  if (existing > 0) index->options_.num_shards = existing;
  DurableTree::Options shard_options;
  shard_options.tree = options.tree;
  shard_options.sync_each_op = options.sync_each_op;
  shard_options.metrics = options.metrics;
  for (uint32_t i = 0; i < index->options_.num_shards; ++i) {
    std::string shard_error;
    std::unique_ptr<DurableTree> shard = DurableTree::Open(
        env, ShardDirFor(dir, i), shard_options, &shard_error);
    if (shard == nullptr) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + ": " + shard_error;
      }
      return nullptr;
    }
    index->shards_.push_back(&shard->tree());
    index->durable_shards_.push_back(std::move(shard));
  }
  return index;
}

std::unique_ptr<ShardedIndex> ShardedIndex::BulkLoad(
    const Dataset& dataset, const ShardedIndexOptions& options,
    const BulkLoadOptions& bulk) {
  auto index = std::make_unique<ShardedIndex>(options);
  std::string error;
  const bool ok = index->AdoptBulkLoaded(dataset, bulk, &error);
  SGTREE_ASSERT_MSG(ok, "in-memory bulk load cannot fail");
  return index;
}

bool ShardedIndex::AdoptBulkLoaded(const Dataset& dataset,
                                   const BulkLoadOptions& bulk,
                                   std::string* error) {
  const uint32_t n = num_shards();
  std::vector<std::vector<Transaction>> parts = Partition(dataset.transactions);
  // Build every shard tree bottom-up in parallel: partitioning is pure,
  // and each builder touches only its own Dataset copy and output tree.
  std::vector<std::unique_ptr<SgTree>> built(n);
  ParallelOverShards(n, [&](uint32_t i) {
    Dataset part;
    part.num_items = dataset.num_items;
    part.fixed_dimensionality = dataset.fixed_dimensionality;
    part.transactions = std::move(parts[i]);
    built[i] = sgtree::BulkLoad(part, options_.tree, bulk);
    CountInserts(i, part.transactions.size());
  });
  if (durable()) {
    // Adoption stays sequential: it is one logged+checkpointed op per
    // shard, dominated by the parallel build above.
    for (uint32_t i = 0; i < n; ++i) {
      std::string shard_error;
      if (!durable_shards_[i]->AdoptBulkLoaded(std::move(built[i]),
                                               &shard_error)) {
        if (error != nullptr) {
          *error = "shard " + std::to_string(i) + ": " + shard_error;
        }
        return false;
      }
      shards_[i] = &durable_shards_[i]->tree();
    }
    return true;
  }
  for (uint32_t i = 0; i < n; ++i) {
    trees_[i] = std::move(built[i]);
    shards_[i] = trees_[i].get();
  }
  return true;
}

bool ShardedIndex::Insert(const Transaction& txn) {
  if (static_mode()) return false;  // Static images are immutable.
  const uint32_t s = ShardOf(txn.tid, num_shards());
  if (durable()) {
    if (!durable_shards_[s]->Insert(txn)) return false;
  } else {
    trees_[s]->Insert(txn);
  }
  CountInserts(s, 1);
  return true;
}

bool ShardedIndex::Erase(const Transaction& txn) {
  if (static_mode()) return false;  // Static images are immutable.
  const uint32_t s = ShardOf(txn.tid, num_shards());
  if (durable()) return durable_shards_[s]->Erase(txn);
  return trees_[s]->Erase(txn);
}

size_t ShardedIndex::InsertBatch(const std::vector<Transaction>& txns) {
  if (static_mode()) return 0;  // Static images are immutable.
  const uint32_t n = num_shards();
  std::vector<std::vector<Transaction>> parts = Partition(txns);
  std::vector<size_t> acked(n, 0);
  ParallelOverShards(n, [&](uint32_t i) {
    if (parts[i].empty()) return;
    if (durable()) {
      acked[i] = durable_shards_[i]->InsertBatch(parts[i]);
    } else {
      for (const Transaction& txn : parts[i]) trees_[i]->Insert(txn);
      acked[i] = parts[i].size();
    }
    CountInserts(i, acked[i]);
  });
  // All or nothing, like DurableTree::InsertBatch: a per-shard sum could
  // not tell the caller which inserts are durable.
  for (uint32_t i = 0; i < n; ++i) {
    if (acked[i] != parts[i].size()) return 0;
  }
  return txns.size();
}

size_t ShardedIndex::size() const {
  size_t total = 0;
  for (const SgTree* shard : shards_) total += shard->size();
  for (const auto& view : static_shards_) total += view->size();
  return total;
}

uint64_t ShardedIndex::node_count() const {
  uint64_t total = 0;
  for (const SgTree* shard : shards_) total += shard->node_count();
  for (const auto& view : static_shards_) total += view->node_count();
  return total;
}

bool ShardedIndex::Sync() {
  bool ok = true;
  for (auto& shard : durable_shards_) ok = shard->Sync() && ok;
  return ok;
}

bool ShardedIndex::Checkpoint(std::string* error) {
  for (uint32_t i = 0; i < num_shards(); ++i) {
    if (durable_shards_.empty()) break;
    std::string shard_error;
    if (!durable_shards_[i]->Checkpoint(&shard_error)) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + ": " + shard_error;
      }
      return false;
    }
  }
  return true;
}

bool ShardedIndex::Save(const std::string& path, std::string* error) const {
  return WriteShards(path, "sgshard 1\n", error);
}

bool ShardedIndex::SaveStatic(const std::string& path,
                              std::string* error) const {
  return WriteShards(path, "sgshard 2\nformat static\n", error);
}

bool ShardedIndex::WriteShards(const std::string& path,
                               const std::string& manifest_head,
                               std::string* error) const {
  if (static_mode()) {
    if (error != nullptr) *error = "cannot re-save a static index";
    return false;
  }
  for (uint32_t i = 0; i < num_shards(); ++i) {
    std::string shard_error;
    if (!BuildStaticTree(*shards_[i], ShardSnapshotPath(path, i),
                         &shard_error)) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + ": " + shard_error;
      }
      return false;
    }
  }
  // The manifest lands last: a crash mid-save leaves either the previous
  // complete index or a manifest whose shard images all already exist.
  const std::string text =
      manifest_head + "shards " + std::to_string(num_shards()) + "\n";
  return AtomicWriteFile(Env::Posix(), path,
                         std::vector<uint8_t>(text.begin(), text.end()),
                         error);
}

std::unique_ptr<ShardedIndex> ShardedIndex::Load(
    const std::string& path, const ShardedIndexOptions& options,
    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open shard manifest " + path;
    return nullptr;
  }
  std::string magic;
  uint32_t version = 0;
  in >> magic >> version;
  if (!in || magic != "sgshard" || (version != 1 && version != 2)) {
    if (error != nullptr) *error = "malformed shard manifest " + path;
    return nullptr;
  }
  std::string format = "trees";
  if (version == 2) {
    std::string format_key;
    in >> format_key >> format;
    if (!in || format_key != "format" || format != "static") {
      if (error != nullptr) *error = "malformed shard manifest " + path;
      return nullptr;
    }
  }
  std::string key;
  uint32_t n = 0;
  in >> key >> n;
  if (!in || key != "shards" || n == 0 || n > kMaxShards) {
    if (error != nullptr) *error = "malformed shard manifest " + path;
    return nullptr;
  }
  std::unique_ptr<ShardedIndex> index(new ShardedIndex());
  index->options_ = options;
  index->options_.num_shards = n;
  for (uint32_t i = 0; i < n; ++i) {
    std::string shard_error;
    if (format == "static") {
      StaticOpenOptions open_options;
      open_options.tree = options.tree;
      std::unique_ptr<StaticTreeView> view =
          StaticTreeView::Open(Env::Posix(), ShardSnapshotPath(path, i),
                               open_options, &shard_error);
      if (view == nullptr) {
        if (error != nullptr) {
          *error = "shard " + std::to_string(i) + ": " + shard_error;
        }
        return nullptr;
      }
      index->static_shards_.push_back(std::move(view));
      continue;
    }
    std::unique_ptr<SgTree> tree =
        LoadTree(ShardSnapshotPath(path, i), options.tree, &shard_error);
    if (tree == nullptr) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + ": " + shard_error;
      }
      return nullptr;
    }
    index->trees_.push_back(std::move(tree));
    index->shards_.push_back(index->trees_.back().get());
  }
  return index;
}

std::string ShardedIndex::ShardSnapshotPath(const std::string& path,
                                            uint32_t i) {
  return path + ".shard" + std::to_string(i);
}

std::string ShardedIndex::ShardDirFor(const std::string& dir, uint32_t i) {
  return dir + "/shard-" + std::to_string(i);
}

std::vector<std::vector<Transaction>> ShardedIndex::Partition(
    const std::vector<Transaction>& txns) const {
  const uint32_t n = num_shards();
  std::vector<std::vector<Transaction>> parts(n);
  for (auto& part : parts) part.reserve(txns.size() / n + 1);
  for (const Transaction& txn : txns) {
    parts[ShardOf(txn.tid, n)].push_back(txn);
  }
  return parts;
}

void ShardedIndex::CountInserts(uint32_t shard, uint64_t n) {
  if (options_.metrics == nullptr || n == 0) return;
  options_.metrics->GetCounter("shard.inserts")->Increment(n);
  options_.metrics->GetCounter("shard." + std::to_string(shard) + ".inserts")
      ->Increment(n);
}

}  // namespace sgtree
