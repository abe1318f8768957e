// Model-based history test for the durable modes. Seeded histories of
// inserts, erases of present and absent keys, batch inserts, checkpoints,
// close-and-reopen and crashes at a chosen write run against a DurableTree
// and against ShardedIndex::OpenDurable at 1 and 3 shards. After every step
// the index must hold exactly the acknowledged history, pass AuditTree in
// every shard, and answer all six query types like a brute-force oracle
// over that history.
//
// A crash step reopens the index over a FaultInjectingEnv, arms a kill at a
// random later write (sometimes leaving a torn prefix of it) and runs
// operations until one fails. An operation that failed may or may not have
// reached the log; the reopened shard's op_seq says how many of them did,
// and they must be a prefix of what was issued, in order.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "common/signature.h"
#include "data/transaction.h"
#include "durability/durable_tree.h"
#include "durability/env.h"
#include "durability/fault_injection.h"
#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "exec/query_executor.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/sg_tree.h"

namespace sgtree {
namespace {

constexpr uint32_t kBits = 64;
constexpr int kSteps = 45;
constexpr int kMaxCrashOps = 30;
constexpr uint64_t kAbsentTidBase = 1'000'000;

SgTreeOptions HistoryOptions() {
  SgTreeOptions options;
  options.num_bits = kBits;
  options.page_size = 512;  // Small nodes: splits and several levels.
  return options;
}

// One durable mode under test.
class Subject {
 public:
  virtual ~Subject() = default;
  virtual bool Open(Env* env, const std::string& dir, std::string* error) = 0;
  virtual void Close() = 0;
  virtual uint32_t num_shards() const = 0;
  virtual bool Insert(const Transaction& txn) = 0;
  virtual bool Erase(const Transaction& txn) = 0;
  virtual size_t InsertBatch(const std::vector<Transaction>& txns) = 0;
  virtual bool Checkpoint(std::string* error) = 0;
  /// Logged operations of shard `s` since the index was created.
  virtual uint64_t op_seq(uint32_t s) = 0;
  virtual size_t size() = 0;
  virtual std::vector<const SgTree*> trees() = 0;
  virtual QueryResult Run(const QueryRequest& request) = 0;
};

class TreeSubject final : public Subject {
 public:
  bool Open(Env* env, const std::string& dir, std::string* error) override {
    DurableTree::Options options;
    options.tree = HistoryOptions();
    durable_ = DurableTree::Open(env, dir, options, error);
    return durable_ != nullptr;
  }
  void Close() override { durable_.reset(); }
  uint32_t num_shards() const override { return 1; }
  bool Insert(const Transaction& txn) override {
    return durable_->Insert(txn);
  }
  bool Erase(const Transaction& txn) override { return durable_->Erase(txn); }
  size_t InsertBatch(const std::vector<Transaction>& txns) override {
    return durable_->InsertBatch(txns);
  }
  bool Checkpoint(std::string* error) override {
    return durable_->Checkpoint(error);
  }
  uint64_t op_seq(uint32_t /*s*/) override { return durable_->op_seq(); }
  size_t size() override { return durable_->tree().size(); }
  std::vector<const SgTree*> trees() override { return {&durable_->tree()}; }
  QueryResult Run(const QueryRequest& request) override {
    return Execute(SgTreeBackend(durable_->tree()), request);
  }

 private:
  std::unique_ptr<DurableTree> durable_;
};

class ShardedSubject final : public Subject {
 public:
  explicit ShardedSubject(uint32_t shards)
      : shards_(shards), executor_(QueryExecutorOptions{2, nullptr}) {}

  bool Open(Env* env, const std::string& dir, std::string* error) override {
    ShardedIndexOptions options;
    options.num_shards = shards_;
    options.tree = HistoryOptions();
    index_ = ShardedIndex::OpenDurable(env, dir, options, error);
    return index_ != nullptr;
  }
  void Close() override { index_.reset(); }
  uint32_t num_shards() const override { return shards_; }
  bool Insert(const Transaction& txn) override { return index_->Insert(txn); }
  bool Erase(const Transaction& txn) override { return index_->Erase(txn); }
  size_t InsertBatch(const std::vector<Transaction>& txns) override {
    return index_->InsertBatch(txns);
  }
  bool Checkpoint(std::string* error) override {
    return index_->Checkpoint(error);
  }
  uint64_t op_seq(uint32_t s) override {
    return index_->durable_shard(s)->op_seq();
  }
  size_t size() override { return index_->size(); }
  std::vector<const SgTree*> trees() override {
    std::vector<const SgTree*> out;
    for (uint32_t s = 0; s < shards_; ++s) out.push_back(&index_->shard(s));
    return out;
  }
  QueryResult Run(const QueryRequest& request) override {
    QueryRouter router(*index_, &executor_);
    return router.RunOne(request);
  }

 private:
  uint32_t shards_;
  QueryExecutor executor_;
  std::unique_ptr<ShardedIndex> index_;
};

struct Op {
  bool insert = true;
  Transaction txn;
};

// The acknowledged history, plus per shard the logged operations whose
// fate a crash left open.
struct Model {
  explicit Model(uint32_t shards) : acked(shards, 0), pending(shards) {}

  uint32_t ShardOf(uint64_t tid) const {
    return ShardedIndex::ShardOf(tid, static_cast<uint32_t>(acked.size()));
  }

  void Apply(const Op& op) {
    if (op.insert) {
      live[op.txn.tid] = op.txn;
    } else {
      live.erase(op.txn.tid);
    }
  }

  // An acknowledged (ok) or possibly lost (!ok) logged operation.
  void Record(const Op& op, bool ok) {
    const uint32_t s = ShardOf(op.txn.tid);
    if (ok) {
      ASSERT_TRUE(pending[s].empty()) << "acknowledged after a failure";
      Apply(op);
      ++acked[s];
    } else {
      pending[s].push_back(op);
    }
  }

  std::map<uint64_t, Transaction> live;
  std::vector<uint64_t> acked;
  std::vector<std::vector<Op>> pending;
};

class HistoryRunner {
 public:
  HistoryRunner(Subject* subject, uint64_t seed, const std::string& dir)
      : subject_(subject), rng_(seed), dir_(dir),
        model_(subject->num_shards()) {}

  void Run() {
    std::filesystem::remove_all(dir_);
    std::string error;
    ASSERT_TRUE(subject_->Open(Env::Posix(), dir_, &error)) << error;
    // Every history checkpoints, keeps writing, then crashes: the case in
    // which a log that is replaced at a checkpoint must keep receiving the
    // records that follow it.
    Step("batch", [&] { ASSERT_TRUE(Batch(20)); });
    Step("checkpoint", [&] { ASSERT_TRUE(Checkpoint()); });
    for (int i = 0; i < 6; ++i) {
      Step("insert", [&] { ASSERT_TRUE(InsertNew()); });
    }
    Step("erase", [&] { ASSERT_TRUE(ErasePresent()); });
    Step("crash", [&] { Crash(); });
    for (int step = 0; step < kSteps; ++step) {
      const uint64_t pick = rng_.UniformInt(100);
      if (pick < 35) {
        Step("insert", [&] { ASSERT_TRUE(InsertNew()); });
      } else if (pick < 50) {
        Step("erase", [&] { ASSERT_TRUE(ErasePresent()); });
      } else if (pick < 56) {
        Step("erase-absent", [&] { EraseAbsent(); });
      } else if (pick < 68) {
        Step("batch", [&] { ASSERT_TRUE(Batch(1 + rng_.UniformInt(12))); });
      } else if (pick < 78) {
        Step("checkpoint", [&] { ASSERT_TRUE(Checkpoint()); });
      } else if (pick < 88) {
        Step("reopen", [&] { Reopen(Env::Posix()); });
      } else {
        Step("crash", [&] { Crash(); });
      }
    }
    subject_->Close();
    std::filesystem::remove_all(dir_);
  }

 private:
  template <typename Fn>
  void Step(const char* name, Fn fn) {
    if (::testing::Test::HasFatalFailure()) return;
    SCOPED_TRACE("step " + std::to_string(step_) + " (" + name + ")");
    ++step_;
    fn();
    if (::testing::Test::HasFatalFailure()) return;
    Check();
  }

  Transaction NewTxn() {
    Transaction txn;
    txn.tid = next_tid_++;
    // Items cluster around one of four centers so the tree has structure.
    const uint32_t center = static_cast<uint32_t>(rng_.UniformInt(4)) * 16;
    const uint64_t n = 2 + rng_.UniformInt(5);
    for (uint64_t i = 0; i < n; ++i) {
      const auto near = static_cast<ItemId>(center + rng_.UniformInt(12));
      txn.items.push_back(rng_.Bernoulli(0.8)
                              ? near
                              : static_cast<ItemId>(rng_.UniformInt(kBits)));
    }
    std::sort(txn.items.begin(), txn.items.end());
    txn.items.erase(std::unique(txn.items.begin(), txn.items.end()),
                    txn.items.end());
    return txn;
  }

  bool InsertNew() {
    const Op op{true, NewTxn()};
    const bool ok = subject_->Insert(op.txn);
    model_.Record(op, ok);
    return ok;
  }

  bool ErasePresent() {
    if (model_.live.empty()) return InsertNew();
    auto it = model_.live.begin();
    std::advance(it, static_cast<ptrdiff_t>(
                         rng_.UniformInt(model_.live.size())));
    const Op op{false, it->second};
    const bool ok = subject_->Erase(op.txn);
    model_.Record(op, ok);
    return ok;
  }

  // Nothing to erase, so nothing is logged and nothing changes.
  void EraseAbsent() {
    Transaction txn = NewTxn();
    txn.tid = kAbsentTidBase + rng_.UniformInt(1000);
    EXPECT_FALSE(subject_->Erase(txn));
    if (!model_.live.empty()) {
      // A present tid with other items is absent as well.
      Transaction other = model_.live.begin()->second;
      other.items = {static_cast<ItemId>(kBits - 1)};
      if (other.items != model_.live.begin()->second.items) {
        EXPECT_FALSE(subject_->Erase(other));
      }
    }
  }

  bool Batch(uint64_t n) {
    std::vector<Transaction> txns;
    for (uint64_t i = 0; i < n; ++i) txns.push_back(NewTxn());
    // All or nothing: a batch that failed leaves every shard's part in
    // doubt, and Settle() resolves each shard by its op_seq.
    const bool ok = subject_->InsertBatch(txns) == txns.size();
    for (const Transaction& txn : txns) model_.Record(Op{true, txn}, ok);
    return ok;
  }

  bool Checkpoint() {
    std::string error;
    return subject_->Checkpoint(&error);
  }

  void Reopen(Env* env) {
    subject_->Close();
    std::string error;
    ASSERT_TRUE(subject_->Open(env, dir_, &error)) << error;
    Settle();
  }

  // Reopens over a fault-injecting env, kills the process model at a random
  // later write and recovers with a clean env.
  void Crash() {
    subject_->Close();
    FaultState state;
    FaultInjectingEnv env(Env::Posix(), &state);
    std::string error;
    ASSERT_TRUE(subject_->Open(&env, dir_, &error)) << error;
    FaultPlan plan;
    plan.kill_at_write = state.writes_issued() + 1 + rng_.UniformInt(24);
    if (rng_.Bernoulli(0.5)) plan.torn_prefix_bytes = 1 + rng_.UniformInt(24);
    state.set_plan(plan);
    // A sharded batch writes from one thread per shard, so the crash can
    // land inside any shard's part while the others are still writing.
    for (int i = 0; i < kMaxCrashOps && !state.dead(); ++i) {
      const uint64_t pick = rng_.UniformInt(100);
      if (pick < 45) {
        InsertNew();
      } else if (pick < 65) {
        ErasePresent();
      } else if (pick < 80) {
        Batch(1 + rng_.UniformInt(6));
      } else {
        Checkpoint();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    Reopen(Env::Posix());
  }

  // After a reopen: each shard's op_seq says how many of its in-doubt
  // operations reached the log.
  void Settle() {
    for (uint32_t s = 0; s < subject_->num_shards(); ++s) {
      const uint64_t op_seq = subject_->op_seq(s);
      ASSERT_GE(op_seq, model_.acked[s]) << "shard " << s
                                         << " lost an acknowledged op";
      const uint64_t survived = op_seq - model_.acked[s];
      ASSERT_LE(survived, model_.pending[s].size()) << "shard " << s;
      for (uint64_t i = 0; i < survived; ++i) {
        model_.Apply(model_.pending[s][static_cast<size_t>(i)]);
      }
      model_.acked[s] = op_seq;
      model_.pending[s].clear();
    }
  }

  std::vector<ItemId> RandomItems(uint64_t n) {
    std::vector<ItemId> items;
    for (uint64_t i = 0; i < n; ++i) {
      items.push_back(static_cast<ItemId>(rng_.UniformInt(kBits)));
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    return items;
  }

  void Check() {
    ASSERT_EQ(subject_->size(), model_.live.size());
    for (const SgTree* tree : subject_->trees()) {
      const AuditReport audit = AuditTree(*tree);
      ASSERT_TRUE(audit.ok()) << audit.FirstMessage();
    }

    Dataset dataset;
    dataset.num_items = kBits;
    for (const auto& [tid, txn] : model_.live) {
      dataset.transactions.push_back(txn);
    }
    const LinearScan scan(dataset);
    const LinearScanBackend oracle(scan);

    // Query item sets: a stored transaction (exact hits), a prefix of it
    // (supersets), it plus random items (subsets), and random items.
    std::vector<std::vector<ItemId>> probes = {RandomItems(4)};
    if (!dataset.transactions.empty()) {
      const std::vector<ItemId>& stored =
          dataset.transactions[rng_.UniformInt(dataset.transactions.size())]
              .items;
      probes.push_back(stored);
      probes.emplace_back(stored.begin(), stored.begin() + 1);
      std::vector<ItemId> wider = stored;
      for (const ItemId item : RandomItems(3)) wider.push_back(item);
      std::sort(wider.begin(), wider.end());
      wider.erase(std::unique(wider.begin(), wider.end()), wider.end());
      probes.push_back(wider);
    }
    for (const std::vector<ItemId>& items : probes) {
      const Signature query = Signature::FromItems(items, kBits);
      for (const QueryType type :
           {QueryType::kKnn, QueryType::kBestFirstKnn, QueryType::kRange,
            QueryType::kContainment, QueryType::kExact, QueryType::kSubset}) {
        QueryRequest request;
        request.type = type;
        request.query = query;
        request.k = 3;
        request.epsilon = 4;
        const QueryResult got = subject_->Run(request);
        ASSERT_TRUE(got.ok()) << got.error;
        if (type == QueryType::kExact) {
          std::vector<uint64_t> expected;
          for (const Transaction& txn : dataset.transactions) {
            if (txn.items == items) expected.push_back(txn.tid);
          }
          EXPECT_EQ(got.ids, expected) << "exact";
          continue;
        }
        const QueryResult want = Execute(oracle, request);
        EXPECT_EQ(got.neighbors, want.neighbors)
            << "query type " << static_cast<int>(type);
        EXPECT_EQ(got.ids, want.ids)
            << "query type " << static_cast<int>(type);
      }
    }
  }

  Subject* subject_;
  Rng rng_;
  std::string dir_;
  Model model_;
  uint64_t next_tid_ = 0;
  int step_ = 0;
};

// 0 = a DurableTree; n > 0 = a ShardedIndex with n durable shards.
class DurableHistoryTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DurableHistoryTest, AcknowledgedHistoryMatchesOracle) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::unique_ptr<Subject> subject;
    if (GetParam() == 0) {
      subject = std::make_unique<TreeSubject>();
    } else {
      subject = std::make_unique<ShardedSubject>(GetParam());
    }
    const std::string dir = ::testing::TempDir() + "/durable_history_" +
                            std::to_string(GetParam()) + "_" +
                            std::to_string(seed);
    HistoryRunner(subject.get(), seed, dir).Run();
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, DurableHistoryTest,
                         ::testing::Values(0u, 1u, 3u),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("tree")
                                      : "shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sgtree
