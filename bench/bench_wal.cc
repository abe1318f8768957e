// Durability cost benchmark: what the write-ahead log charges for insert
// throughput (per-op fsync vs group commit vs no durability at all), how
// recovery time (thaw the checkpoint image, replay the log) scales with the
// length of the log, and what a checkpoint (publish the whole image) costs.
// Results are printed as a table and written as JSON to $BENCH_WAL_JSON
// (default BENCH_wal.json) for the CI artifact.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "data/quest_generator.h"
#include "durability/durable_tree.h"
#include "durability/env.h"
#include "durability/recovery.h"
#include "sgtree/sg_tree.h"

namespace sgtree::bench {
namespace {

struct InsertRow {
  std::string method;
  uint64_t ops = 0;
  double ms = 0;
  double ops_per_sec = 0;
};

struct RecoveryRow {
  uint64_t ops = 0;
  uint64_t wal_bytes = 0;
  uint64_t records_replayed = 0;
  double recover_ms = 0;
  double checkpoint_ms = 0;
  uint64_t checkpoint_bytes = 0;  // The image a checkpoint publishes.
};

std::string FreshDir(const std::string& name) {
  const std::string dir = "bench_wal_tmp_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

SgTreeOptions TreeOptions(const Dataset& dataset) {
  SgTreeOptions options;
  options.num_bits = dataset.num_items;
  options.fixed_dimensionality = dataset.fixed_dimensionality;
  return options;
}

InsertRow BenchPlain(const Dataset& dataset) {
  SgTree tree(TreeOptions(dataset));
  Timer timer;
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  const double ms = timer.ElapsedMs();
  const auto n = static_cast<uint64_t>(dataset.size());
  return {"memory (no wal)", n, ms, 1000.0 * double(n) / ms};
}

InsertRow BenchDurable(const Dataset& dataset, bool sync_each_op) {
  const std::string dir =
      FreshDir(sync_each_op ? "sync_each_op" : "group_commit");
  DurableTree::Options options;
  options.tree = TreeOptions(dataset);
  options.sync_each_op = sync_each_op;
  std::string error;
  auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  if (durable == nullptr) {
    std::fprintf(stderr, "open %s failed: %s\n", dir.c_str(), error.c_str());
    std::exit(1);
  }
  Timer timer;
  if (sync_each_op) {
    for (const Transaction& txn : dataset.transactions) {
      if (!durable->Insert(txn)) {
        std::fprintf(stderr, "insert failed\n");
        std::exit(1);
      }
    }
  } else {
    if (durable->InsertBatch(dataset.transactions) != dataset.size()) {
      std::fprintf(stderr, "batch insert failed\n");
      std::exit(1);
    }
  }
  const double ms = timer.ElapsedMs();
  const auto n = static_cast<uint64_t>(dataset.size());
  return {sync_each_op ? "wal fsync/op" : "wal group commit", n, ms,
          1000.0 * double(n) / ms};
}

// Builds a durable tree whose first `ops` operations all sit in the log
// (no checkpoint), then measures cold recovery and the checkpoint.
RecoveryRow BenchRecovery(const Dataset& dataset, uint64_t ops) {
  const std::string dir = FreshDir("recovery_" + std::to_string(ops));
  DurableTree::Options options;
  options.tree = TreeOptions(dataset);
  options.sync_each_op = false;
  std::string error;
  RecoveryRow row;
  row.ops = ops;
  {
    auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
    if (durable == nullptr) {
      std::fprintf(stderr, "open failed: %s\n", error.c_str());
      std::exit(1);
    }
    std::vector<Transaction> prefix(dataset.transactions.begin(),
                                    dataset.transactions.begin() +
                                        static_cast<ptrdiff_t>(ops));
    if (durable->InsertBatch(prefix) != prefix.size()) {
      std::fprintf(stderr, "batch insert failed\n");
      std::exit(1);
    }
  }
  {
    auto file = Env::Posix()->Open(WalPathFor(dir), false);
    if (file != nullptr) row.wal_bytes = file->Size();
  }
  {
    Timer timer;
    auto recovered = RecoverTree(Env::Posix(), dir, &error, &options.tree);
    row.recover_ms = timer.ElapsedMs();
    if (recovered == nullptr) {
      std::fprintf(stderr, "recovery failed: %s\n", error.c_str());
      std::exit(1);
    }
    row.records_replayed = recovered->report.records_replayed;
  }
  {
    auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
    Timer timer;
    if (durable == nullptr || !durable->Checkpoint(&error)) {
      std::fprintf(stderr, "checkpoint failed: %s\n", error.c_str());
      std::exit(1);
    }
    row.checkpoint_ms = timer.ElapsedMs();
    auto image = Env::Posix()->Open(
        CheckpointPathFor(dir, durable->checkpoint_seq()), false);
    if (image != nullptr) row.checkpoint_bytes = image->Size();
  }
  return row;
}

void WriteJson(const std::vector<InsertRow>& inserts,
               const std::vector<RecoveryRow>& recoveries) {
  const char* env = std::getenv("BENCH_WAL_JSON");
  const std::string path = env != nullptr ? env : "BENCH_wal.json";
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  file << "{\"scale_factor\": " << ScaleFactor() << ", \"insert\": [\n";
  for (size_t i = 0; i < inserts.size(); ++i) {
    const InsertRow& row = inserts[i];
    file << "  {\"method\": \"" << row.method << "\", \"ops\": " << row.ops
         << ", \"ms\": " << row.ms
         << ", \"ops_per_sec\": " << row.ops_per_sec << "}"
         << (i + 1 < inserts.size() ? ",\n" : "\n");
  }
  file << "], \"recovery\": [\n";
  for (size_t i = 0; i < recoveries.size(); ++i) {
    const RecoveryRow& row = recoveries[i];
    file << "  {\"ops\": " << row.ops << ", \"wal_bytes\": " << row.wal_bytes
         << ", \"records_replayed\": " << row.records_replayed
         << ", \"recover_ms\": " << row.recover_ms
         << ", \"checkpoint_ms\": " << row.checkpoint_ms
         << ", \"checkpoint_bytes\": " << row.checkpoint_bytes << "}"
         << (i + 1 < recoveries.size() ? ",\n" : "\n");
  }
  file << "]}\n";
  std::printf("wrote %s\n", path.c_str());
}

int Run() {
  const Dataset dataset =
      QuestGenerator(PaperQuest(10, 4, 100'000)).Generate();
  std::printf("=== WAL insert throughput (%zu transactions) ===\n",
              dataset.size());
  std::printf("%-18s %10s %12s %14s\n", "method", "ops", "ms", "ops/sec");
  std::vector<InsertRow> inserts;
  inserts.push_back(BenchPlain(dataset));
  inserts.push_back(BenchDurable(dataset, /*sync_each_op=*/false));
  inserts.push_back(BenchDurable(dataset, /*sync_each_op=*/true));
  for (const InsertRow& row : inserts) {
    std::printf("%-18s %10llu %12.1f %14.0f\n", row.method.c_str(),
                static_cast<unsigned long long>(row.ops), row.ms,
                row.ops_per_sec);
  }

  std::printf("\n=== Recovery time vs log length ===\n");
  std::printf("%10s %12s %10s %12s %14s %14s\n", "ops", "wal_bytes",
              "records", "recover_ms", "checkpoint_ms", "checkpoint_B");
  std::vector<RecoveryRow> recoveries;
  for (const double fraction : {0.125, 0.25, 0.5, 1.0}) {
    const auto ops =
        static_cast<uint64_t>(double(dataset.size()) * fraction);
    if (ops == 0) continue;
    const RecoveryRow row = BenchRecovery(dataset, ops);
    std::printf("%10llu %12llu %10llu %12.2f %14.2f %14llu\n",
                static_cast<unsigned long long>(row.ops),
                static_cast<unsigned long long>(row.wal_bytes),
                static_cast<unsigned long long>(row.records_replayed),
                row.recover_ms, row.checkpoint_ms,
                static_cast<unsigned long long>(row.checkpoint_bytes));
    recoveries.push_back(row);
  }

  WriteJson(inserts, recoveries);
  return 0;
}

}  // namespace
}  // namespace sgtree::bench

int main() { return sgtree::bench::Run(); }
