#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "baseline/linear_scan.h"
#include "common/distance.h"
#include "common/signature.h"
#include "durability/env.h"
#include "exec/index_backend.h"
#include "exec/query_executor.h"
#include "gate.h"
#include "obs/metrics.h"
#include "report.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sgtree/sg_tree.h"
#include "shard/query_router.h"
#include "static/static_tree_backend.h"

namespace perfbench {
namespace {

using sgtree::QueryRequest;
using sgtree::QueryResult;
using sgtree::QueryType;
using sgtree::Signature;

constexpr int kRepeats = 5;
constexpr size_t kKernelQueries = 64;
constexpr size_t kKernelEntries = 2048;
constexpr uint32_t kReplayInserts = 2000;
constexpr uint32_t kDurableInserts = 300;
constexpr int kPings = 500;

// Results of timed loops land here, so the loops cannot be optimized away.
volatile double g_sink = 0;

bool IsPredicate(QueryType type) {
  return type == QueryType::kContainment || type == QueryType::kExact ||
         type == QueryType::kSubset;
}

// The transactions of `data` that shard 0 of an n-way partition holds.
sgtree::Dataset ShardZero(const sgtree::Dataset& data, uint32_t shards) {
  sgtree::Dataset out;
  out.num_items = data.num_items;
  out.fixed_dimensionality = data.fixed_dimensionality;
  for (const sgtree::Transaction& txn : data.transactions) {
    if (sgtree::ShardedIndex::ShardOf(txn.tid, shards) == 0) {
      out.transactions.push_back(txn);
    }
  }
  return out;
}

sgtree::SgTreeOptions TreeOptions(uint32_t num_bits) {
  sgtree::SgTreeOptions options;
  options.num_bits = num_bits;
  options.buffer_pages = 64;
  return options;
}

// Times Signature::XorCount and MinDistBound — the out-of-line entry points
// in signature.cc and distance.cc, so the flags the library was built with
// decide the code that runs — on query x leaf-entry pairs.
void MeasureKernels(const LayerInputs& in, uint32_t parent,
                    LayerReport* report) {
  ScopedSpan probe(in.spans, "probe.kernels", parent);
  std::vector<Signature> queries;
  for (size_t i = 0; i < in.queries.size() && queries.size() < kKernelQueries;
       ++i) {
    queries.push_back(in.queries[i].query);
  }
  std::vector<Signature> entries;
  const size_t stride =
      std::max<size_t>(1, in.data->transactions.size() / kKernelEntries);
  for (size_t i = 0; i < in.data->transactions.size() &&
                     entries.size() < kKernelEntries;
       i += stride) {
    entries.push_back(Signature::FromItems(in.data->transactions[i].items,
                                           in.data->num_items));
  }
  const double pairs = static_cast<double>(queries.size() * entries.size());
  std::vector<double> xor_ns;
  std::vector<double> bound_ns;
  uint64_t sink = 0;
  double bound_sink = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    {
      ScopedSpan span(in.spans, "Signature::XorCount", probe.id());
      const Clock::time_point start = Clock::now();
      for (const Signature& q : queries) {
        for (const Signature& e : entries) sink += Signature::XorCount(q, e);
      }
      xor_ns.push_back(MicrosSince(start) * 1000.0 / pairs);
    }
    {
      ScopedSpan span(in.spans, "MinDistBound", probe.id());
      const Clock::time_point start = Clock::now();
      for (const Signature& q : queries) {
        for (const Signature& e : entries) {
          bound_sink += sgtree::MinDistBound(q, e, sgtree::Metric::kHamming);
        }
      }
      bound_ns.push_back(MicrosSince(start) * 1000.0 / pairs);
    }
  }
  g_sink = g_sink + static_cast<double>(sink) + bound_sink;
  report->xor_count_ns = Median(xor_ns);
  report->min_dist_bound_ns = Median(bound_ns);
}

// Rung 1 plus the linear scan beside it and the predicate probe.
void MeasureSingleTree(const LayerInputs& in,
                       const sgtree::IndexBackend& tree,
                       const sgtree::Dataset& shard_data, uint32_t parent,
                       LayerReport* report, std::vector<QueryResult>* answers) {
  const double n = static_cast<double>(in.queries.size());
  sgtree::BufferPool pool(64);
  std::vector<double> tree_us;
  sgtree::QueryTrace trace;
  {
    ScopedSpan rung(in.spans, "rung.execute", parent);
    for (size_t i = 0; i < in.queries.size(); ++i) {
      pool.Clear();
      ScopedSpan span(in.spans, "Execute", rung.id(), i);
      answers->push_back(sgtree::Execute(tree, in.queries[i], &pool));
      tree_us.push_back(answers->back().elapsed_us);
      trace += answers->back().trace;
    }
  }
  report->execute_us_p50 = Summarize(tree_us).p50;
  report->nodes_visited_per_query =
      static_cast<double>(trace.nodes_visited()) / n;
  report->signatures_tested_per_query =
      static_cast<double>(trace.signatures_tested) / n;
  report->prune_ratio =
      trace.signatures_tested == 0
          ? 0
          : static_cast<double>(trace.subtrees_pruned) /
                static_cast<double>(trace.signatures_tested);
  report->pct_data =
      shard_data.transactions.empty()
          ? 0
          : 100.0 * static_cast<double>(trace.candidates_verified) /
                (n * static_cast<double>(shard_data.transactions.size()));

  // False drops need a predicate: the workload's own predicate queries plus
  // a containment query on the first three items of every query.
  uint64_t verified = 0;
  uint64_t false_drops = 0;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    if (IsPredicate(in.queries[i].type)) {
      verified += (*answers)[i].trace.candidates_verified;
      false_drops += (*answers)[i].trace.false_drops;
    }
    std::vector<uint32_t> items = in.queries[i].query.ToItems();
    items.resize(std::min<size_t>(items.size(), 3));
    QueryRequest containment;
    containment.type = QueryType::kContainment;
    containment.query = Signature::FromItems(items, in.data->num_items);
    pool.Clear();
    const QueryResult r = sgtree::Execute(tree, containment, &pool);
    verified += r.trace.candidates_verified;
    false_drops += r.trace.false_drops;
  }
  report->false_drop_ratio =
      verified == 0 ? 0
                    : static_cast<double>(false_drops) /
                          static_cast<double>(verified);

  const sgtree::LinearScan scan(shard_data);
  std::vector<double> scan_us;
  {
    ScopedSpan rung(in.spans, "rung.scan", parent);
    for (size_t i = 0; i < in.queries.size(); ++i) {
      ScopedSpan span(in.spans, "Execute(LinearScanBackend)", rung.id(), i);
      const Clock::time_point start = Clock::now();
      const QueryResult r = BruteForce(scan, in.queries[i]);
      scan_us.push_back(MicrosSince(start));
    }
  }
  report->scan_us_p50 = Summarize(scan_us).p50;
}

// Rung 2 (executor on shard 0) and rung 3 (router over every shard).
void MeasureBatches(const LayerInputs& in, const sgtree::IndexBackend& tree,
                    uint32_t parent, LayerReport* report) {
  const double n = static_cast<double>(in.queries.size());
  const double lanes = static_cast<double>(in.lanes);
  sgtree::QueryExecutorOptions exec_options;
  exec_options.num_threads = in.lanes;
  sgtree::QueryExecutor executor(exec_options);

  std::vector<double> qps;
  std::vector<double> efficiency;
  {
    ScopedSpan rung(in.spans, "rung.executor", parent);
    for (int rep = 0; rep < kRepeats; ++rep) {
      ScopedSpan span(in.spans, "QueryExecutor::Run", rung.id(), rep);
      executor.Run(tree, in.queries);
      const sgtree::BatchReport& r = executor.last_batch_report();
      qps.push_back(n / (r.wall_ms / 1000.0));
      efficiency.push_back(r.task_us / (r.wall_ms * 1000.0 * lanes));
    }
  }
  report->exec_batch_qps = Median(qps);
  report->exec_lane_efficiency = Median(efficiency);

  sgtree::QueryRouter router(*in.index, &executor);
  std::vector<double> us_per_query;
  std::vector<double> shard_efficiency;
  std::vector<double> skew;
  const double shards = static_cast<double>(in.index->num_shards());
  {
    ScopedSpan rung(in.spans, "rung.router", parent);
    for (int rep = 0; rep < kRepeats; ++rep) {
      std::vector<QueryResult> results;
      {
        ScopedSpan span(in.spans, "QueryRouter::Run", rung.id(), rep);
        results = router.Run(in.queries);
      }
      const sgtree::BatchReport& r = router.last_batch_report();
      us_per_query.push_back(r.wall_ms * 1000.0 / n);
      shard_efficiency.push_back(r.task_us / (r.wall_ms * 1000.0 * lanes));
      double slowest_parts = 0;
      for (const QueryResult& result : results) {
        slowest_parts += result.elapsed_us;
      }
      skew.push_back(r.task_us > 0 ? slowest_parts / (r.task_us / shards) : 0);
      const double touched = static_cast<double>(r.trace.buffer_hits +
                                                 r.trace.buffer_misses);
      report->buffer_hit_ratio =
          touched > 0 ? static_cast<double>(r.trace.buffer_hits) / touched : 0;
      report->random_ios_per_query =
          static_cast<double>(r.trace.buffer_misses) / n;
    }
  }
  report->router_us_per_query = Median(us_per_query);
  report->shard_lane_efficiency = Median(shard_efficiency);
  report->part_skew = Median(skew);
}

// Rung 4: a server of the ladder's own over the same index, one connection.
bool MeasureServer(const LayerInputs& in,
                   const std::vector<QueryResult>& answers, uint32_t parent,
                   LayerReport* report, std::string* error) {
  sgtree::serve::ServerOptions options;
  std::unique_ptr<sgtree::serve::Server> server =
      sgtree::serve::Server::Create(in.index, options, error);
  if (server == nullptr || !server->Start(error)) return false;
  sgtree::serve::Client client;
  if (!client.Connect("127.0.0.1", server->port(), 5000)) {
    *error = "ladder connect: " + client.error();
    return false;
  }
  std::vector<double> tcp_us;
  {
    ScopedSpan rung(in.spans, "rung.tcp", parent);
    for (size_t i = 0; i < in.queries.size(); ++i) {
      QueryResult r;
      ScopedSpan span(in.spans, "Client::Query", rung.id(), i);
      const Clock::time_point start = Clock::now();
      if (client.Query(in.queries[i], &r) !=
          sgtree::serve::Client::Status::kOk) {
        *error = "ladder query: " + client.error();
        return false;
      }
      tcp_us.push_back(MicrosSince(start));
    }
  }
  report->tcp_us_p50 = Summarize(tcp_us).p50;

  std::vector<double> ping_us;
  for (int i = 0; i < kPings; ++i) {
    const Clock::time_point start = Clock::now();
    if (client.Ping() != sgtree::serve::Client::Status::kOk) {
      *error = "ping: " + client.error();
      return false;
    }
    ping_us.push_back(MicrosSince(start));
  }
  report->ping_us_p50 = Summarize(ping_us).p50;
  report->linger_us = static_cast<double>(server->batcher()->linger_us());
  if (!ScrapeServer(server->port(), &report->server, error)) return false;
  client.Disconnect();
  server->Stop();

  // The wire codec a client pays per query: encode the request, decode the
  // answer (answers are the rung-1 results, so sizes are the real ones).
  std::vector<std::vector<uint8_t>> encoded;
  for (const QueryResult& r : answers) {
    encoded.push_back(sgtree::serve::EncodeAnswer(r));
  }
  std::vector<double> codec_us;
  size_t sink = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < in.queries.size(); ++i) {
      sink += sgtree::serve::EncodeRequest(in.queries[i]).size();
      QueryResult decoded;
      std::string decode_error;
      sgtree::serve::DecodeAnswer(encoded[i].data(), encoded[i].size(),
                                  &decoded, &decode_error);
      sink += decoded.neighbors.size() + decoded.ids.size();
    }
    codec_us.push_back(MicrosSince(start) /
                       static_cast<double>(in.queries.size()));
  }
  g_sink = g_sink + static_cast<double>(sink);
  report->codec_us = Median(codec_us);
  return true;
}

// In-memory SgTree::Insert replay of the drift stream into a shard-sized
// tree, and the same stream through a durable one-shard index (WAL append
// and fsync per insert, the server's default flush policy).
bool MeasureInserts(const LayerInputs& in, const sgtree::Dataset& shard_data,
                    uint32_t parent, LayerReport* report, std::string* error) {
  const uint64_t first_tid = uint64_t{in.spec->transactions} + 10'000'000;
  const std::vector<sgtree::Transaction> drift =
      DriftTransactions(*in.spec, in.seed, kReplayInserts, first_tid);
  {
    ScopedSpan probe(in.spans, "probe.replay", parent);
    sgtree::SgTree tree(TreeOptions(in.data->num_items));
    for (const sgtree::Transaction& txn : shard_data.transactions) {
      tree.Insert(txn);
    }
    std::vector<double> us;
    for (const sgtree::Transaction& txn : drift) {
      ScopedSpan span(in.spans, "SgTree::Insert", probe.id(), txn.tid);
      const Clock::time_point start = Clock::now();
      tree.Insert(txn);
      us.push_back(MicrosSince(start));
    }
    report->insert_us_p50 = Summarize(us).p50;
  }

  ScopedSpan probe(in.spans, "probe.durable", parent);
  const std::filesystem::path dir =
      std::filesystem::path(in.work_dir) /
      ("durable-probe-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  sgtree::obs::MetricsRegistry registry;
  sgtree::ShardedIndexOptions options;
  options.num_shards = 1;
  options.tree = TreeOptions(in.data->num_items);
  options.metrics = &registry;
  bool ok = false;
  {
    std::unique_ptr<sgtree::ShardedIndex> durable =
        sgtree::ShardedIndex::OpenDurable(sgtree::Env::Posix(), dir.string(),
                                          options, error);
    if (durable != nullptr &&
        durable->AdoptBulkLoaded(shard_data, {}, error)) {
      const uint64_t bytes0 = registry.GetCounter("wal.bytes")->Value();
      const uint64_t fsyncs0 = registry.GetCounter("wal.fsyncs")->Value();
      std::vector<double> us;
      ok = true;
      for (uint32_t i = 0; i < kDurableInserts && ok; ++i) {
        ScopedSpan span(in.spans, "ShardedIndex::Insert", probe.id(),
                        drift[i].tid);
        const Clock::time_point start = Clock::now();
        ok = durable->Insert(drift[i]);
        us.push_back(MicrosSince(start));
      }
      if (!ok) *error = "durable probe insert failed";
      const double n = static_cast<double>(us.size());
      report->durable_insert_us_p50 = Summarize(us).p50;
      report->wal_bytes_per_insert =
          static_cast<double>(registry.GetCounter("wal.bytes")->Value() -
                              bytes0) / n;
      report->fsyncs_per_insert =
          static_cast<double>(registry.GetCounter("wal.fsyncs")->Value() -
                              fsyncs0) / n;
    }
  }
  std::filesystem::remove_all(dir, ec);
  return ok;
}

}  // namespace

bool MeasureLayers(const LayerInputs& in, LayerReport* report,
                   std::string* error) {
  ScopedSpan ladder(in.spans, "ladder");
  const sgtree::Dataset shard_data =
      ShardZero(*in.data, in.index->num_shards());
  std::unique_ptr<sgtree::IndexBackend> tree;
  if (in.index->static_mode()) {
    tree = std::make_unique<sgtree::StaticTreeBackend>(
        in.index->static_shard(0));
  } else {
    tree = std::make_unique<sgtree::SgTreeBackend>(in.index->shard(0));
  }

  MeasureKernels(in, ladder.id(), report);
  std::vector<QueryResult> answers;
  MeasureSingleTree(in, *tree, shard_data, ladder.id(), report, &answers);
  MeasureBatches(in, *tree, ladder.id(), report);
  if (!MeasureServer(in, answers, ladder.id(), report, error)) return false;
  return MeasureInserts(in, shard_data, ladder.id(), report, error);
}

}  // namespace perfbench
