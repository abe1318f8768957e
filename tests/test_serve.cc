// Serving front end tests (DESIGN.md §10): protocol codec bijection, the
// result cache's epoch-keyed invalidation, lock-free admission, the
// batcher's natural batching, and — the load-bearing part — the
// end-to-end differential proof that answers served over TCP are
// byte-identical to direct QueryRouter execution for all six query types,
// cached or uncached, replicated or not. The concurrent suites double as
// ThreadSanitizer targets (tsan CI job).

#include "server/server.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/query_api.h"
#include "exec/query_executor.h"
#include "net/socket.h"
#include "server/admission.h"
#include "server/batcher.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "tests/test_util.h"

namespace sgtree {
namespace serve {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

constexpr uint32_t kBits = 120;

SgTreeOptions TreeOptions() {
  SgTreeOptions options;
  options.num_bits = kBits;
  options.max_entries = 8;
  return options;
}

ShardedIndexOptions ShardOptions(uint32_t num_shards) {
  ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.tree = TreeOptions();
  return options;
}

std::vector<QueryRequest> MixedBatch(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<QueryRequest> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    QueryRequest request;
    request.type = static_cast<QueryType>(i % 6);
    request.query = RandomSignature(rng, kBits, 0.07);
    request.k = 1 + static_cast<uint32_t>(i % 7);
    request.epsilon = 6.0 + static_cast<double>(i % 5);
    batch.push_back(std::move(request));
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Protocol codec.

TEST(ServeProtocol, RequestRoundTripsForAllTypes) {
  for (const QueryRequest& request : MixedBatch(11, 12)) {
    const std::vector<uint8_t> bytes = EncodeRequest(request);
    QueryRequest decoded;
    std::string error;
    ASSERT_TRUE(DecodeRequest(bytes.data(), bytes.size(), &decoded, &error))
        << error;
    EXPECT_EQ(decoded.type, request.type);
    EXPECT_TRUE(decoded.query == request.query);
    // Only the parameters the type consumes survive the wire.
    if (request.type == QueryType::kKnn ||
        request.type == QueryType::kBestFirstKnn) {
      EXPECT_EQ(decoded.k, request.k);
    }
    if (request.type == QueryType::kRange) {
      EXPECT_EQ(decoded.epsilon, request.epsilon);
    }
    // Bijection: re-encoding reproduces the input bytes (the cache-key
    // property).
    EXPECT_EQ(EncodeRequest(decoded), bytes);
  }
}

TEST(ServeProtocol, RequestDecodeRejectsMalformedBytes) {
  QueryRequest request;
  request.type = QueryType::kKnn;
  request.query = Signature(kBits);
  request.query.Set(3);
  request.k = 5;
  std::vector<uint8_t> bytes = EncodeRequest(request);
  QueryRequest decoded;
  std::string error;

  // Trailing byte.
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(
      DecodeRequest(trailing.data(), trailing.size(), &decoded, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  // Truncation at every prefix length must fail, never crash.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeRequest(bytes.data(), len, &decoded, &error))
        << "accepted a " << len << "-byte prefix";
  }

  // Unknown type byte.
  std::vector<uint8_t> bad_type = bytes;
  bad_type[0] = 99;
  EXPECT_FALSE(
      DecodeRequest(bad_type.data(), bad_type.size(), &decoded, &error));

  // Bits set beyond the declared width (a non-canonical encoding would
  // split cache keys).
  std::vector<uint8_t> padded = bytes;
  padded[5 + (kBits / 8)] |= 0x80;  // kBits=120: byte 15 of the signature.
  EXPECT_FALSE(DecodeRequest(padded.data(), padded.size(), &decoded, &error));
  EXPECT_NE(error.find("beyond"), std::string::npos) << error;

  // Zero-width and oversized signatures.
  std::vector<uint8_t> zero = {0, 0, 0, 0, 0};
  EXPECT_FALSE(DecodeRequest(zero.data(), zero.size(), &decoded, &error));
}

TEST(ServeProtocol, AnswerRoundTrips) {
  QueryResult result;
  result.neighbors.push_back(Neighbor{42, 1.5});
  result.neighbors.push_back(Neighbor{7, 2.25});
  result.ids = {1, 2, 30000000000ull};
  const std::vector<uint8_t> bytes = EncodeAnswer(result);
  QueryResult decoded;
  std::string error;
  ASSERT_TRUE(DecodeAnswer(bytes.data(), bytes.size(), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.neighbors, result.neighbors);
  EXPECT_EQ(decoded.ids, result.ids);
  EXPECT_TRUE(decoded.ok());

  QueryResult failed;
  failed.error = "k must be > 0, got 0";
  const std::vector<uint8_t> err_bytes = EncodeAnswer(failed);
  ASSERT_TRUE(
      DecodeAnswer(err_bytes.data(), err_bytes.size(), &decoded, &error));
  EXPECT_EQ(decoded.error, failed.error);
}

// ---------------------------------------------------------------------------
// Result cache.

TEST(ResultCacheTest, HitMissEvictClear) {
  ResultCache cache(32);
  const std::vector<uint8_t> payload = {1, 2, 3};
  std::vector<uint8_t> got;
  EXPECT_FALSE(cache.Get("a", &got));
  cache.Put("a", payload);
  ASSERT_TRUE(cache.Get("a", &got));
  EXPECT_EQ(got, payload);
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_FALSE(cache.Get("a", &got));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedPerStripe) {
  // Capacity 16 over 16 stripes = 1 entry per stripe: a second key landing
  // on an occupied stripe must evict its tenant.
  ResultCache cache(16);
  for (int i = 0; i < 64; ++i) {
    cache.Put("key" + std::to_string(i), {static_cast<uint8_t>(i)});
  }
  EXPECT_LE(cache.size(), 16u);
}

TEST(ResultCacheTest, EpochPrefixSeparatesKeys) {
  const std::vector<uint8_t> request = {9, 9, 9};
  EXPECT_NE(ResultCache::Key(1, request), ResultCache::Key(2, request));
  ResultCache cache(32);
  cache.Put(ResultCache::Key(1, request), {1});
  std::vector<uint8_t> got;
  EXPECT_FALSE(cache.Get(ResultCache::Key(2, request), &got));
  EXPECT_TRUE(cache.Get(ResultCache::Key(1, request), &got));
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.Put("a", {1});
  std::vector<uint8_t> got;
  EXPECT_FALSE(cache.Get("a", &got));
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Admission.

TEST(AdmissionTest, ShedsPastBudgetAndRecovers) {
  AdmissionController admission(2);
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_FALSE(admission.TryAdmit());
  EXPECT_EQ(admission.inflight(), 2u);
  admission.Release();
  EXPECT_TRUE(admission.TryAdmit());
  admission.Release();
  admission.Release();
  EXPECT_EQ(admission.inflight(), 0u);
}

TEST(AdmissionTest, ConcurrentAdmitsNeverExceedBudget) {
  AdmissionController admission(8);
  std::atomic<uint32_t> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&admission, &peak] {
      for (int i = 0; i < 2000; ++i) {
        AdmissionSlot slot(&admission);
        if (slot.admitted()) {
          const uint32_t now = admission.inflight();
          uint32_t prev = peak.load(std::memory_order_relaxed);
          while (now > prev && !peak.compare_exchange_weak(
                                   prev, now, std::memory_order_relaxed)) {
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(peak.load(), 8u);
  EXPECT_EQ(admission.inflight(), 0u);
}

// ---------------------------------------------------------------------------
// Batcher.

TEST(BatcherTest, TakesWhatQueuedUpToMaxBatch) {
  std::latch first_running(1);
  std::latch release(1);
  std::vector<size_t> sizes;  // Written by the single dispatcher only.
  Batcher batcher(1, [&](const std::vector<QueryRequest>& requests) {
    sizes.push_back(requests.size());
    if (sizes.size() == 1) {
      first_running.count_down();
      release.wait();
    }
    return std::vector<QueryResult>(requests.size());
  });
  batcher.Start();
  QueryRequest request;
  request.query = Signature(kBits);
  std::vector<std::shared_ptr<PendingQuery>> pendings;
  // A request reaching an empty queue runs alone, as a batch of one.
  pendings.push_back(batcher.Submit(request));
  first_running.wait();
  // Everything submitted while that batch runs is taken in kMaxBatch chunks.
  for (uint32_t i = 0; i < 2 * Batcher::kMaxBatch + 1; ++i) {
    pendings.push_back(batcher.Submit(request));
  }
  release.count_down();
  for (const auto& pending : pendings) {
    ASSERT_NE(pending, nullptr);
    pending->Wait();
  }
  batcher.Stop();
  EXPECT_EQ(sizes, (std::vector<size_t>{1, Batcher::kMaxBatch,
                                        Batcher::kMaxBatch, 1}));
}

TEST(BatcherTest, StopFailsStragglersInsteadOfHanging) {
  Batcher batcher(1, [](const std::vector<QueryRequest>& requests) {
    return std::vector<QueryResult>(requests.size());
  });
  batcher.Start();
  batcher.Stop();
  QueryRequest request;
  request.query = Signature(kBits);
  EXPECT_EQ(batcher.Submit(request), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end server fixtures.

struct DirectOracle {
  explicit DirectOracle(const ShardedIndex& index)
      : executor(MakeExecOptions()), router(index, &executor) {}

  static QueryExecutorOptions MakeExecOptions() {
    QueryExecutorOptions options;
    options.num_threads = 2;
    return options;
  }

  std::vector<QueryResult> Run(const std::vector<QueryRequest>& batch) {
    return router.Run(batch);
  }

  QueryExecutor executor;
  QueryRouter router;
};

// The differential proof: every served answer must be byte-identical (in
// the wire encoding, which covers neighbors / ids / error but not timing)
// to direct QueryRouter execution on the same index.
void ExpectServedMatchesDirect(Client* client, DirectOracle* oracle,
                               const std::vector<QueryRequest>& batch,
                               const std::string& label) {
  const std::vector<QueryResult> expected = oracle->Run(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    QueryResult served;
    ASSERT_EQ(client->Query(batch[i], &served), Client::Status::kOk)
        << label << " query " << i << ": " << client->error();
    EXPECT_EQ(EncodeAnswer(served), EncodeAnswer(expected[i]))
        << label << " query " << i << " diverged (type "
        << static_cast<int>(batch[i].type) << ")";
  }
}

TEST(ServeEndToEnd, DynamicIndexServesAllSixTypesByteIdentical) {
  const Dataset dataset = ClusteredDataset(71, 600, kBits, 8, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(2));
  ASSERT_NE(index, nullptr);
  ServerOptions options;
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000))
      << client.error();
  DirectOracle oracle(*index);
  const std::vector<QueryRequest> batch = MixedBatch(72, 36);
  ExpectServedMatchesDirect(&client, &oracle, batch, "uncached");
  // Second pass: every request is now a cache hit and must return the very
  // same bytes.
  ExpectServedMatchesDirect(&client, &oracle, batch, "cached");
  EXPECT_GT(server->metrics()->GetCounter("serve.cache.hits")->Value(), 0u);
  server->Stop();
}

TEST(ServeEndToEnd, ValidationErrorsCarryOffendingValue) {
  const Dataset dataset = ClusteredDataset(73, 200, kBits, 4, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(1));
  ServerOptions options;
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));

  QueryRequest bad_k;
  bad_k.type = QueryType::kKnn;
  bad_k.query = Signature(kBits);
  bad_k.query.Set(1);
  bad_k.k = 0;
  QueryResult result;
  ASSERT_EQ(client.Query(bad_k, &result), Client::Status::kOk);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("got 0"), std::string::npos) << result.error;

  QueryRequest bad_eps;
  bad_eps.type = QueryType::kRange;
  bad_eps.query = bad_k.query;
  bad_eps.epsilon = -3.5;
  ASSERT_EQ(client.Query(bad_eps, &result), Client::Status::kOk);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("got -3.5"), std::string::npos) << result.error;
  server->Stop();
}

TEST(ServeEndToEnd, InsertBumpsEpochClearsCacheAndChangesAnswers) {
  const Dataset dataset = ClusteredDataset(75, 400, kBits, 6, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(2));
  ServerOptions options;
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));

  // Prime the cache with an exact-match probe for a signature NOT in the
  // dataset yet.
  Rng rng(76);
  std::vector<ItemId> items = testing::RandomItems(rng, kBits, 9);
  QueryRequest probe;
  probe.type = QueryType::kExact;
  probe.query = Signature::FromItems(items, kBits);
  QueryResult before;
  ASSERT_EQ(client.Query(probe, &before), Client::Status::kOk);
  EXPECT_TRUE(before.ids.empty());
  ASSERT_EQ(client.Query(probe, &before), Client::Status::kOk);  // Hit.
  EXPECT_GT(server->result_cache()->size(), 0u);
  const uint64_t epoch_before = server->epoch();

  // Insert a transaction with exactly that signature.
  Transaction txn;
  txn.tid = 1'000'000;
  txn.items = items;
  bool accepted = false;
  std::string message;
  uint64_t epoch_after = 0;
  ASSERT_EQ(client.Insert(txn, &accepted, &message, &epoch_after),
            Client::Status::kOk);
  EXPECT_TRUE(accepted) << message;
  EXPECT_EQ(epoch_after, epoch_before + 1);
  // The invalidation rule: epoch bumped AND cache cleared.
  EXPECT_EQ(server->result_cache()->size(), 0u);

  // A stale cached answer would still say "no match"; the fresh answer
  // must see the insert.
  QueryResult after;
  ASSERT_EQ(client.Query(probe, &after), Client::Status::kOk);
  ASSERT_EQ(after.ids.size(), 1u);
  EXPECT_EQ(after.ids[0], txn.tid);

  // And the served answer still matches direct execution post-insert.
  DirectOracle oracle(*index);
  ExpectServedMatchesDirect(&client, &oracle, MixedBatch(77, 18),
                            "post-insert");
  server->Stop();
}

TEST(ServeEndToEnd, BusySheddingPastInflightBudget) {
  const Dataset dataset = ClusteredDataset(79, 200, kBits, 4, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(1));
  ServerOptions options;
  options.max_inflight = 0;  // Shed everything: deterministic BUSY.
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));
  QueryRequest request;
  request.type = QueryType::kKnn;
  request.query = Signature(kBits);
  request.query.Set(2);
  request.k = 1;
  QueryResult result;
  EXPECT_EQ(client.Query(request, &result), Client::Status::kBusy);
  // The connection survives a BUSY; a ping still works.
  EXPECT_EQ(client.Ping(), Client::Status::kOk);
  EXPECT_GT(server->metrics()->GetCounter("serve.shed")->Value(), 0u);
  server->Stop();
}

class ReplicatedServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Dataset dataset = ClusteredDataset(81, 700, kBits, 8, 10, 2);
    ShardedIndex dynamic_index(ShardOptions(2));
    ASSERT_EQ(dynamic_index.InsertBatch(dataset.transactions),
              dataset.transactions.size());
    // Test-unique path: ctest runs this fixture's cases concurrently, and a
    // shared manifest would let one case's save clobber another's files.
    manifest_ =
        ::testing::TempDir() + "/sgtree_serve_replicated_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(::getpid()) + ".idx";
    std::string error;
    ASSERT_TRUE(dynamic_index.SaveStatic(manifest_, &error)) << error;
    index_ = ShardedIndex::Load(manifest_, ShardOptions(2), &error);
    ASSERT_NE(index_, nullptr) << error;
    ASSERT_TRUE(index_->static_mode());
  }

  std::unique_ptr<Server> MakeServer(uint32_t replicas) {
    ServerOptions options;
    options.replicas.num_replicas = replicas;
    options.replicas.manifest_path = manifest_;
    options.replicas.index_options = ShardOptions(2);
    std::string error;
    auto server = Server::Create(index_.get(), options, &error);
    EXPECT_NE(server, nullptr) << error;
    if (server != nullptr) {
      EXPECT_TRUE(server->Start(&error)) << error;
    }
    return server;
  }

  void TearDown() override {
    index_.reset();
    std::remove(manifest_.c_str());
    for (int shard = 0; shard < 2; ++shard) {
      std::remove((manifest_ + ".shard" + std::to_string(shard)).c_str());
    }
  }

  std::string manifest_;
  std::unique_ptr<ShardedIndex> index_;
};

// Served answers must not depend on which replica ran the batch, so every
// replica answers a batch of its own. With one sequential client every load
// is 0 when a batch is routed and ties go to the lowest live index, so
// replica 0 runs the first batch; failing the replica that just answered
// hands the next batch to a view reopened from the manifest, and the last
// batch can only run on replica 2. Each batch is new to the cache, so every
// query runs on a replica.
TEST_F(ReplicatedServeTest, ReplicatedAndHedgedAnswersAreByteIdentical) {
  auto server = MakeServer(/*replicas=*/3);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->replica_set()->num_replicas(), 3u);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));
  DirectOracle oracle(*index_);
  obs::Counter* misses = server->metrics()->GetCounter("serve.cache.misses");
  for (uint32_t replica = 0; replica < 3; ++replica) {
    const std::vector<QueryRequest> batch = MixedBatch(82 + 10 * replica, 30);
    const uint64_t misses_before = misses->Value();
    ExpectServedMatchesDirect(&client, &oracle, batch,
                              "replica " + std::to_string(replica));
    EXPECT_EQ(misses->Value() - misses_before, batch.size());
    if (replica < 2) server->replica_set()->FailReplica(replica);
  }
  EXPECT_EQ(server->replica_set()->live_replicas(), 1u);
  server->Stop();
}

TEST_F(ReplicatedServeTest, KillOneReplicaMidStreamDegradesGracefully) {
  auto server = MakeServer(/*replicas=*/3);
  ASSERT_NE(server, nullptr);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));
  DirectOracle oracle(*index_);
  obs::Counter* misses = server->metrics()->GetCounter("serve.cache.misses");
  // Each phase sends queries new to the cache, so each runs on the replicas
  // still live: 0 while it lives, then 1, the last survivor.
  const auto expect_phase = [&](uint64_t seed, const std::string& label) {
    const std::vector<QueryRequest> batch = MixedBatch(seed, 24);
    const uint64_t misses_before = misses->Value();
    ExpectServedMatchesDirect(&client, &oracle, batch, label);
    EXPECT_EQ(misses->Value() - misses_before, batch.size()) << label;
  };
  expect_phase(83, "three live");

  server->replica_set()->FailReplica(2);
  EXPECT_EQ(server->replica_set()->live_replicas(), 2u);
  expect_phase(86, "two live");

  server->replica_set()->FailReplica(0);
  EXPECT_EQ(server->replica_set()->live_replicas(), 1u);
  // One replica left, and not the primary: answers still byte-identical.
  expect_phase(87, "one live");

  server->replica_set()->FailReplica(1);
  // Zero live replicas: requests fail with an explicit error answer, not a
  // hang or a crash. (The cache may still serve entries computed earlier,
  // so probe with a fresh request.)
  QueryRequest fresh;
  fresh.type = QueryType::kKnn;
  Rng rng(84);
  fresh.query = RandomSignature(rng, kBits, 0.5);
  fresh.k = 3;
  QueryResult result;
  ASSERT_EQ(client.Query(fresh, &result), Client::Status::kOk);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("no live replicas"), std::string::npos)
      << result.error;
  server->Stop();
}

TEST_F(ReplicatedServeTest, StaticIndexRefusesMutation) {
  auto server = MakeServer(/*replicas=*/1);
  ASSERT_NE(server, nullptr);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));
  Transaction txn;
  txn.tid = 5;
  txn.items = {1, 2, 3};
  bool accepted = true;
  std::string message;
  uint64_t epoch = 99;
  ASSERT_EQ(client.Insert(txn, &accepted, &message, &epoch),
            Client::Status::kOk);
  EXPECT_FALSE(accepted);
  EXPECT_NE(message.find("immutable"), std::string::npos) << message;
  EXPECT_EQ(epoch, 0u);  // Refused mutations must not bump the epoch.
  server->Stop();
}

TEST(ServeEndToEnd, AdminSurface) {
  const Dataset dataset = ClusteredDataset(85, 200, kBits, 4, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(1));
  ServerOptions options;
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));

  EXPECT_EQ(client.Ping(), Client::Status::kOk);
  uint64_t epoch = 77;
  ASSERT_EQ(client.GetEpoch(&epoch), Client::Status::kOk);
  EXPECT_EQ(epoch, 0u);

  QueryRequest request;
  request.type = QueryType::kKnn;
  request.query = Signature(kBits);
  request.query.Set(9);
  request.k = 2;
  QueryResult result;
  ASSERT_EQ(client.Query(request, &result), Client::Status::kOk);

  std::string json;
  ASSERT_EQ(client.GetMetrics(0, &json), Client::Status::kOk);
  EXPECT_NE(json.find("serve.requests"), std::string::npos);
  EXPECT_NE(json.find("serve.request_us"), std::string::npos);
  std::string prom;
  ASSERT_EQ(client.GetMetrics(1, &prom), Client::Status::kOk);
  // Prometheus names are sanitized: dots become underscores.
  EXPECT_NE(prom.find("serve_requests"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);
  server->Stop();
}

// ---------------------------------------------------------------------------
// Protocol robustness against hostile/broken peers.

TEST(ServeRobustness, RejectsBadPreamble) {
  const Dataset dataset = ClusteredDataset(87, 100, kBits, 4, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(1));
  ServerOptions options;
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;

  net::Socket raw =
      net::Socket::ConnectTcp("127.0.0.1", server->port(), 5000, &error);
  ASSERT_TRUE(raw.valid()) << error;
  const char garbage[8] = {'H', 'T', 'T', 'P', '/', '1', '.', '1'};
  ASSERT_EQ(raw.SendAll(garbage, sizeof(garbage), 5000, &error),
            net::IoStatus::kOk);
  // The server must close without echoing.
  uint8_t byte = 0;
  EXPECT_EQ(raw.RecvAll(&byte, 1, 5000, &error), net::IoStatus::kClosed);
  EXPECT_GT(server->metrics()->GetCounter("serve.protocol_errors")->Value(),
            0u);
  server->Stop();
}

TEST(ServeRobustness, RejectsOversizedAndMalformedFrames) {
  const Dataset dataset = ClusteredDataset(89, 100, kBits, 4, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(1));
  ServerOptions options;
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;

  // Handshake by hand, then send a frame whose length field is absurd.
  net::Socket raw =
      net::Socket::ConnectTcp("127.0.0.1", server->port(), 5000, &error);
  ASSERT_TRUE(raw.valid()) << error;
  uint8_t preamble[kPreambleBytes];
  std::memcpy(preamble, kPreambleMagic, 4);
  const uint32_t version = kProtocolVersion;
  std::memcpy(preamble + 4, &version, 4);
  ASSERT_EQ(raw.SendAll(preamble, sizeof(preamble), 5000, &error),
            net::IoStatus::kOk);
  uint8_t echo[kPreambleBytes];
  ASSERT_EQ(raw.RecvAll(echo, sizeof(echo), 5000, &error),
            net::IoStatus::kOk);
  const uint32_t huge = kMaxFrameBytes + 1;
  uint8_t frame[4];
  std::memcpy(frame, &huge, 4);
  ASSERT_EQ(raw.SendAll(frame, 4, 5000, &error), net::IoStatus::kOk);
  // Expect an error frame, then close.
  uint8_t header[5];
  ASSERT_EQ(raw.RecvAll(header, 5, 5000, &error), net::IoStatus::kOk);
  EXPECT_EQ(header[4], static_cast<uint8_t>(FrameType::kError));

  // A malformed query payload (truncated signature) also earns an error
  // frame and a close — through the client this surfaces as kServerError.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));
  // Unknown frame type via a fresh raw connection.
  net::Socket raw2 =
      net::Socket::ConnectTcp("127.0.0.1", server->port(), 5000, &error);
  ASSERT_TRUE(raw2.valid());
  ASSERT_EQ(raw2.SendAll(preamble, sizeof(preamble), 5000, &error),
            net::IoStatus::kOk);
  ASSERT_EQ(raw2.RecvAll(echo, sizeof(echo), 5000, &error),
            net::IoStatus::kOk);
  const std::vector<uint8_t> bogus =
      EncodeFrame(static_cast<FrameType>(200), {1, 2, 3});
  ASSERT_EQ(raw2.SendAll(bogus.data(), bogus.size(), 5000, &error),
            net::IoStatus::kOk);
  uint8_t header2[5];
  ASSERT_EQ(raw2.RecvAll(header2, 5, 5000, &error), net::IoStatus::kOk);
  EXPECT_EQ(header2[4], static_cast<uint8_t>(FrameType::kError));
  server->Stop();
}

// A query signature of another width than the index's is refused with one
// error naming both widths (the search kernels would read past the shorter
// word array), is not cached, and leaves the connection serving.
TEST(ServeRobustness, RefusesQueryOfAnotherWidth) {
  const Dataset dataset = ClusteredDataset(88, 300, kBits, 4, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(2));
  ServerOptions options;
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));

  // Narrower than the index, and the widest signature the decoder takes.
  for (const uint32_t width : {64u, kMaxRequestBits}) {
    QueryRequest request;
    request.type = QueryType::kKnn;
    request.query = Signature(width);
    request.query.Set(3);
    request.k = 5;
    QueryResult result;
    ASSERT_EQ(client.Query(request, &result), Client::Status::kOk);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.neighbors.empty());
    EXPECT_EQ(result.error, "query signature has " + std::to_string(width) +
                                " bits, the index has 120");
  }
  EXPECT_EQ(server->result_cache()->size(), 0u);

  DirectOracle oracle(*index);
  ExpectServedMatchesDirect(&client, &oracle, MixedBatch(90, 6),
                            "after refusal");
  server->Stop();
}

// An insert naming an item outside the index's width is refused with a
// not-accepted op-ack (Signature::FromItems would abort the server), the
// epoch stays put, and the server keeps answering.
TEST(ServeRobustness, RefusesInsertItemOutsideWidth) {
  const Dataset dataset = ClusteredDataset(92, 300, kBits, 4, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(2));
  ServerOptions options;
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));

  Transaction txn;
  txn.tid = 3'000'000;
  txn.items = {4, kBits};
  bool accepted = true;
  std::string message;
  uint64_t epoch = 99;
  ASSERT_EQ(client.Insert(txn, &accepted, &message, &epoch),
            Client::Status::kOk);
  EXPECT_FALSE(accepted);
  EXPECT_EQ(message, "item 120 is out of range for 120-bit signatures");
  EXPECT_EQ(epoch, 0u);
  EXPECT_EQ(server->epoch(), 0u);
  EXPECT_EQ(index->size(), dataset.transactions.size());

  DirectOracle oracle(*index);
  ExpectServedMatchesDirect(&client, &oracle, MixedBatch(96, 6),
                            "after refusal");
  server->Stop();
}

// ---------------------------------------------------------------------------
// Concurrency (ThreadSanitizer targets).

TEST(ServeConcurrency, ManyClientsAgainstReplicatedStaticIndex) {
  const Dataset dataset = ClusteredDataset(91, 500, kBits, 8, 10, 2);
  ShardedIndex dynamic_index(ShardOptions(2));
  ASSERT_EQ(dynamic_index.InsertBatch(dataset.transactions),
            dataset.transactions.size());
  const std::string manifest =
      ::testing::TempDir() + "/sgtree_serve_stress.idx";
  std::string error;
  ASSERT_TRUE(dynamic_index.SaveStatic(manifest, &error)) << error;
  auto index = ShardedIndex::Load(manifest, ShardOptions(2), &error);
  ASSERT_NE(index, nullptr) << error;

  ServerOptions options;
  options.replicas.num_replicas = 2;
  options.replicas.manifest_path = manifest;
  options.replicas.index_options = ShardOptions(2);
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;

  constexpr int kClients = 6;
  constexpr int kQueriesPerClient = 40;
  // Direct answers first, so the clients race only each other: concurrent
  // batches spread over both replicas, and every answer must still match.
  std::vector<std::vector<QueryRequest>> batches;
  std::vector<std::vector<QueryResult>> expected;
  DirectOracle oracle(*index);
  for (int c = 0; c < kClients; ++c) {
    batches.push_back(
        MixedBatch(100 + static_cast<uint64_t>(c), kQueriesPerClient));
    expected.push_back(oracle.Run(batches.back()));
  }
  std::atomic<int> failures{0};
  std::latch halfway(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([port = server->port(), &batch = batches[c],
                          &answers = expected[c], &failures, &halfway] {
      Client client;
      if (!client.Connect("127.0.0.1", port, 5000)) {
        failures.fetch_add(1);
        halfway.count_down();
        return;
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        if (i == batch.size() / 2) halfway.count_down();
        QueryResult result;
        if (client.Query(batch[i], &result) != Client::Status::kOk ||
            !result.ok() ||
            EncodeAnswer(result) != EncodeAnswer(answers[i])) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Kill a replica once every client is halfway: nobody may fail.
  halfway.wait();
  server->replica_set()->FailReplica(1);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server->Stop();
}

TEST(ServeConcurrency, QueriesRaceInsertsWithoutTornAnswers) {
  const Dataset dataset = ClusteredDataset(93, 400, kBits, 6, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(2));
  ServerOptions options;
  options.cache_entries = 256;
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;

  std::atomic<int> failures{0};
  std::thread writer([port = server->port(), &failures] {
    Client client;
    if (!client.Connect("127.0.0.1", port, 5000)) {
      failures.fetch_add(1);
      return;
    }
    Rng rng(94);
    for (int i = 0; i < 30; ++i) {
      Transaction txn;
      txn.tid = 2'000'000 + static_cast<uint64_t>(i);
      txn.items = testing::RandomItems(rng, kBits, 8);
      bool accepted = false;
      std::string message;
      uint64_t epoch = 0;
      if (client.Insert(txn, &accepted, &message, &epoch) !=
              Client::Status::kOk ||
          !accepted) {
        failures.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> readers;
  for (int c = 0; c < 4; ++c) {
    readers.emplace_back([c, port = server->port(), &failures] {
      Client client;
      if (!client.Connect("127.0.0.1", port, 5000)) {
        failures.fetch_add(1);
        return;
      }
      const std::vector<QueryRequest> batch =
          MixedBatch(200 + static_cast<uint64_t>(c), 40);
      for (const QueryRequest& request : batch) {
        QueryResult result;
        if (client.Query(request, &result) != Client::Status::kOk ||
            !result.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->epoch(), 30u);

  // After the dust settles, served answers equal direct execution on the
  // final index state.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));
  DirectOracle oracle(*index);
  ExpectServedMatchesDirect(&client, &oracle, MixedBatch(95, 18),
                            "post-race");
  server->Stop();
}

TEST(ServeEndToEnd, StopUnblocksIdleConnections) {
  const Dataset dataset = ClusteredDataset(97, 100, kBits, 4, 10, 2);
  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(1));
  ServerOptions options;
  std::string error;
  auto server = Server::Create(index.get(), options, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port(), 5000));
  ASSERT_EQ(client.Ping(), Client::Status::kOk);
  // Stop with an idle connection parked in the frame-length read: Stop()
  // must not hang (the Shutdown() path unblocks the reader).
  server->Stop();
  EXPECT_NE(client.Ping(), Client::Status::kOk);
}

}  // namespace
}  // namespace serve
}  // namespace sgtree
