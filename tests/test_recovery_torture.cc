// Crash-recovery torture matrix. A fixed update workload runs over the
// fault-injecting env; a clean pass counts the file writes the workload
// issues, then the kill point sweeps over every write (plus torn-write and
// bit-flip variants). After each simulated crash the index is recovered
// with a clean env and must (a) pass the full invariant audit — RecoverTree
// gates on it internally — and (b) answer a fixed query workload exactly
// like a never-crashed reference tree built from the committed operation
// prefix. The recovered op_seq pins down which prefix that is.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/signature.h"
#include "data/transaction.h"
#include "durability/durable_tree.h"
#include "durability/env.h"
#include "durability/fault_injection.h"
#include "durability/recovery.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"

namespace sgtree {
namespace {

constexpr uint32_t kBits = 64;

SgTreeOptions TortureOptions() {
  SgTreeOptions options;
  options.num_bits = kBits;
  options.page_size = 512;
  return options;
}

struct Op {
  bool insert = true;
  Transaction txn;
};

// 36 inserts interleaved with 6 erases of previously inserted keys; node
// splits, entry removals, and (with the small page size) multi-level
// structure are all exercised.
std::vector<Op> Workload() {
  std::vector<Op> ops;
  uint64_t state = 88172645463325252ull;  // xorshift64
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<Transaction> txns;
  for (uint64_t tid = 0; tid < 36; ++tid) {
    Transaction txn;
    txn.tid = tid;
    const size_t n = 2 + next() % 5;
    for (size_t i = 0; i < n; ++i) {
      txn.items.push_back(ItemId(next() % kBits));
    }
    std::sort(txn.items.begin(), txn.items.end());
    txn.items.erase(std::unique(txn.items.begin(), txn.items.end()),
                    txn.items.end());
    txns.push_back(std::move(txn));
  }
  for (uint64_t tid = 0; tid < txns.size(); ++tid) {
    ops.push_back({true, txns[size_t(tid)]});
    // Every sixth insert is followed by an erase of an earlier key that is
    // still present (tids 0,6,12,... are erased exactly once, right after
    // tid+5 is inserted).
    if (tid % 6 == 5) ops.push_back({false, txns[size_t(tid - 5)]});
  }
  return ops;
}

// The fixed query workload recovered trees are graded against.
std::string QuerySnapshot(SgTree& tree) {
  std::ostringstream out;
  const std::vector<std::vector<ItemId>> probes = {
      {3, 17, 40}, {1, 2}, {8, 9, 10, 11}, {63}, {20, 30, 44, 50}};
  for (const auto& items : probes) {
    const Signature query = Signature::FromItems(items, kBits);
    for (const Neighbor& n : DfsKNearest(tree, query, 3)) {
      out << " " << n.tid << ":" << n.distance;
    }
    out << " |";
    for (const Neighbor& n : RangeSearch(tree, query, 8)) {
      out << " " << n.tid << ":" << n.distance;
    }
    out << " |";
    for (uint64_t tid : ContainmentSearch(tree, query)) out << " " << tid;
    out << "\n";
  }
  out << "size=" << tree.size() << " height=" << tree.height()
      << " nodes=" << tree.node_count();
  return out.str();
}

// Never-crashed reference: the first `n_ops` operations applied in memory.
std::string ReferenceSnapshot(const std::vector<Op>& ops, uint64_t n_ops) {
  SgTree tree(TortureOptions());
  for (uint64_t i = 0; i < n_ops; ++i) {
    const Op& op = ops[size_t(i)];
    if (op.insert) {
      tree.Insert(op.txn);
    } else {
      EXPECT_TRUE(tree.Erase(op.txn)) << "reference erase " << i;
    }
  }
  return QuerySnapshot(tree);
}

std::string TrialDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Runs the workload against `dir` through a fault-injecting env until an
// operation fails (simulated crash) or the workload completes. Returns the
// number of operations acknowledged (their WAL commit fsync returned).
uint64_t RunWorkload(Env* env, const std::string& dir,
                     const std::vector<Op>& ops, bool* opened) {
  DurableTree::Options options;
  options.tree = TortureOptions();
  std::string error;
  auto durable = DurableTree::Open(env, dir, options, &error);
  *opened = durable != nullptr;
  if (!*opened) return 0;
  uint64_t acked = 0;
  for (const Op& op : ops) {
    const bool ok = op.insert ? durable->Insert(op.txn)
                              : durable->Erase(op.txn);
    if (!ok) break;
    ++acked;
  }
  return acked;
}

// Recovers `dir` with a clean env and grades it against the reference for
// the op prefix recovery reports. `acked` operations were fsync-acked
// before the crash, so at least that many must survive.
void CheckRecovered(const std::string& dir, const std::vector<Op>& ops,
                    uint64_t acked, const std::string& label) {
  const SgTreeOptions options = TortureOptions();
  std::string error;
  auto recovered = RecoverTree(Env::Posix(), dir, &error, &options);
  ASSERT_NE(recovered, nullptr) << label << ": " << error;
  ASSERT_TRUE(recovered->audit.ok()) << label;
  const uint64_t survived = recovered->report.op_seq;
  EXPECT_GE(survived, acked) << label;
  EXPECT_LE(survived, ops.size()) << label;
  EXPECT_EQ(QuerySnapshot(*recovered->tree),
            ReferenceSnapshot(ops, survived))
      << label << " (op_seq " << survived << ")";
}

// Reopening through DurableTree (recover + continue) must also work, and
// the continued index must accept new operations.
void CheckReopenAndContinue(const std::string& dir, const std::string& label) {
  DurableTree::Options options;
  options.tree = TortureOptions();
  std::string error;
  auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << label << ": " << error;
  Transaction probe;
  probe.tid = 99'999;
  probe.items = {1, 33, 62};
  ASSERT_TRUE(durable->Insert(probe)) << label;
  ASSERT_TRUE(durable->Checkpoint(&error)) << label << ": " << error;
}

TEST(RecoveryTortureTest, KillAfterEveryWrite) {
  const std::vector<Op> ops = Workload();

  // Clean pass: count the writes the full workload issues.
  FaultState state;
  FaultInjectingEnv fenv(Env::Posix(), &state);
  const std::string clean_dir = TrialDir("torture_clean");
  bool opened = false;
  const uint64_t acked_all = RunWorkload(&fenv, clean_dir, ops, &opened);
  ASSERT_TRUE(opened);
  ASSERT_EQ(acked_all, ops.size());
  const uint64_t total_writes = state.writes_issued();
  // One record per operation, after the creation's image and log.
  ASSERT_GT(total_writes, ops.size());
  CheckRecovered(clean_dir, ops, acked_all, "clean run");

  for (uint64_t kill = 1; kill <= total_writes; ++kill) {
    const std::string label = "kill@" + std::to_string(kill);
    const std::string dir = TrialDir("torture_kill");
    FaultPlan plan;
    plan.kill_at_write = kill;
    state.set_plan(plan);
    state.Reset();
    const uint64_t acked = RunWorkload(&fenv, dir, ops, &opened);
    if (!opened) {
      // Crash while creating the index: there is nothing durable yet; all
      // that is required is that recovery fails cleanly instead of
      // fabricating a tree.
      std::string error;
      auto recovered = RecoverTree(Env::Posix(), dir, &error);
      if (recovered != nullptr) {
        EXPECT_EQ(recovered->report.op_seq, 0u) << label;
      } else {
        EXPECT_FALSE(error.empty()) << label;
      }
      continue;
    }
    CheckRecovered(dir, ops, acked, label);
    CheckReopenAndContinue(dir, label);
  }
}

TEST(RecoveryTortureTest, TornWritesAtEveryThirdKillPoint) {
  const std::vector<Op> ops = Workload();
  FaultState state;
  FaultInjectingEnv fenv(Env::Posix(), &state);
  const std::string clean_dir = TrialDir("torture_torn_clean");
  bool opened = false;
  ASSERT_EQ(RunWorkload(&fenv, clean_dir, ops, &opened), ops.size());
  const uint64_t total_writes = state.writes_issued();

  for (uint64_t kill = 1; kill <= total_writes; kill += 3) {
    for (const uint64_t torn : {uint64_t{1}, uint64_t{7}}) {
      const std::string label =
          "torn" + std::to_string(torn) + "@" + std::to_string(kill);
      const std::string dir = TrialDir("torture_torn");
      FaultPlan plan;
      plan.kill_at_write = kill;
      plan.torn_prefix_bytes = torn;
      state.set_plan(plan);
      state.Reset();
      const uint64_t acked = RunWorkload(&fenv, dir, ops, &opened);
      if (!opened) continue;  // covered by the kill sweep above
      CheckRecovered(dir, ops, acked, label);
    }
  }
}

TEST(RecoveryTortureTest, CrashDuringCheckpoint) {
  const std::vector<Op> ops = Workload();

  // Clean pass with a trailing checkpoint: writes in (ops_writes, total]
  // fall inside the checkpoint protocol — the publication of the image and
  // then of the new log.
  FaultState state;
  FaultInjectingEnv fenv(Env::Posix(), &state);
  const std::string clean_dir = TrialDir("ckpt_clean");
  bool opened = false;
  ASSERT_EQ(RunWorkload(&fenv, clean_dir, ops, &opened), ops.size());
  const uint64_t ops_writes = state.writes_issued();
  {
    DurableTree::Options options;
    options.tree = TortureOptions();
    std::string error;
    auto durable = DurableTree::Open(&fenv, clean_dir, options, &error);
    ASSERT_NE(durable, nullptr) << error;
    ASSERT_TRUE(durable->Checkpoint(&error)) << error;
  }
  const uint64_t reopen_and_ckpt_writes = state.writes_issued() - ops_writes;
  ASSERT_GT(reopen_and_ckpt_writes, 0u);

  // Sweep every write of the reopen+checkpoint phase. All workload ops were
  // acked before the checkpoint began, so every one of them must survive
  // any crash inside it.
  for (uint64_t kill = 1; kill <= reopen_and_ckpt_writes; ++kill) {
    const std::string label = "ckpt-kill@" + std::to_string(kill);
    const std::string dir = TrialDir("torture_ckpt_kill");
    FaultState build_state;
    FaultInjectingEnv build_env(Env::Posix(), &build_state);
    ASSERT_EQ(RunWorkload(&build_env, dir, ops, &opened), ops.size());

    FaultPlan plan;
    plan.kill_at_write = kill;
    plan.torn_prefix_bytes = (kill % 2 == 0) ? 5 : UINT64_MAX;
    state.set_plan(plan);
    state.Reset();
    {
      DurableTree::Options options;
      options.tree = TortureOptions();
      std::string error;
      auto durable = DurableTree::Open(&fenv, dir, options, &error);
      if (durable != nullptr) {
        durable->Checkpoint(&error);  // may fail: that is the point
      }
    }
    CheckRecovered(dir, ops, ops.size(), label);
    CheckReopenAndContinue(dir, label);
  }
}

TEST(RecoveryTortureTest, BitFlipsInTheLogNeverCrashRecovery) {
  const std::vector<Op> ops = Workload();
  Env* env = Env::Posix();
  const std::string dir = TrialDir("flip_build");
  bool opened = false;
  ASSERT_EQ(RunWorkload(env, dir, ops, &opened), ops.size());

  // Take the intact WAL bytes once, then probe flipped copies.
  const std::string wal_path = WalPathFor(dir);
  std::vector<uint8_t> wal_bytes;
  {
    auto file = env->Open(wal_path, false);
    ASSERT_NE(file, nullptr);
    ASSERT_TRUE(file->ReadAt(0, size_t(file->Size()), &wal_bytes));
  }
  ASSERT_GT(wal_bytes.size(), 64u);

  const std::string probe_dir = TrialDir("flip_probe");
  const std::string probe_wal = WalPathFor(probe_dir);

  const uint64_t step = wal_bytes.size() / 29 + 1;
  for (uint64_t pos = 2; pos < wal_bytes.size(); pos += step) {
    const std::string label = "flip@" + std::to_string(pos);
    std::vector<uint8_t> flipped = wal_bytes;
    flipped[size_t(pos)] ^= uint8_t(1u << (pos % 8));
    std::filesystem::remove_all(probe_dir);
    std::filesystem::copy(dir, probe_dir);
    {
      auto file = env->Open(probe_wal, true);
      ASSERT_TRUE(file->WriteAt(0, flipped.data(), flipped.size()));
    }
    // A flipped log byte truncates the committed prefix at worst; recovery
    // must either produce a consistent prefix state or fail with a clear
    // error — never crash, never serve a corrupt tree.
    const SgTreeOptions options = TortureOptions();
    std::string error;
    auto recovered = RecoverTree(Env::Posix(), probe_dir, &error, &options);
    if (recovered == nullptr) {
      EXPECT_FALSE(error.empty()) << label;
      continue;
    }
    EXPECT_TRUE(recovered->audit.ok()) << label;
    const uint64_t survived = recovered->report.op_seq;
    EXPECT_LE(survived, ops.size()) << label;
    EXPECT_EQ(QuerySnapshot(*recovered->tree),
              ReferenceSnapshot(ops, survived))
        << label;
  }
}

TEST(RecoveryTortureTest, UnloggedPageRotIsDetectedNotServed) {
  const std::vector<Op> ops = Workload();
  Env* env = Env::Posix();
  const std::string dir = TrialDir("rot_build");
  bool opened = false;
  ASSERT_EQ(RunWorkload(env, dir, ops, &opened), ops.size());
  {
    DurableTree::Options options;
    options.tree = TortureOptions();
    std::string error;
    auto durable = DurableTree::Open(env, dir, options, &error);
    ASSERT_NE(durable, nullptr) << error;
    ASSERT_TRUE(durable->Checkpoint(&error)) << error;
  }

  // After the checkpoint the log holds nothing but its marker, so rot in
  // the checkpoint image cannot be repaired, and recovery must say so
  // instead of serving the image. Flip one byte of the last node record.
  const std::string image_path = CheckpointPathFor(dir, 2);
  auto file = env->Open(image_path, false);
  ASSERT_NE(file, nullptr);
  const uint64_t offset = file->Size() - 5;
  std::vector<uint8_t> byte;
  ASSERT_TRUE(file->ReadAt(offset, 1, &byte));
  byte[0] ^= 0x10;
  ASSERT_TRUE(file->WriteAt(offset, byte.data(), 1));
  file.reset();

  const SgTreeOptions options = TortureOptions();
  std::string error;
  EXPECT_EQ(RecoverTree(Env::Posix(), dir, &error, &options), nullptr);
  EXPECT_NE(error.find("body checksum mismatch"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace sgtree
