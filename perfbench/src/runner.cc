#include "runner.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "baseline/linear_scan.h"
#include "durability/env.h"
#include "env_stamp.h"
#include "exec/query_executor.h"
#include "gate.h"
#include "layers.h"
#include "loadgen.h"
#include "report.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sgtree::QueryRequest;
using sgtree::QueryResult;

constexpr int kSetupRepeats = 5;
constexpr size_t kLadderQueries = 240;  // A multiple of the six query types.
constexpr size_t kBatchGateSamples = 64;
constexpr size_t kServeGateSamples = 240;
constexpr size_t kMixedGateSamples = 120;
/// An open-loop run whose generator lagged more than this at p99 measured
/// the generator, not the server: it is marked invalid.
constexpr double kLateBoundUs = 10000;

uint32_t Nproc() { return ReadEnvStamp().nproc; }

sgtree::ShardedIndexOptions IndexOptions() {
  sgtree::ShardedIndexOptions options;
  options.num_shards = kShards;
  options.tree.num_bits = 1000;
  options.tree.buffer_pages = 64;
  options.sync_each_op = true;  // Fsync a shard's WAL per acknowledged insert.
  return options;
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// One set-up of a workload: its data, requests, index and server. Tearing
/// it down stops the server and removes its files.
struct Deployment {
  sgtree::Dataset data;
  RequestStream stream;
  std::unique_ptr<sgtree::ShardedIndex> index;
  std::unique_ptr<sgtree::serve::Server> server;
  fs::path dir;
  std::vector<double> build_insert_us;  // Per ShardedIndex::Insert at build.

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (server != nullptr) server->Stop();
    server.reset();
    index.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }

  /// Index size on disk (or, in memory, in pages) per indexed transaction.
  double IndexBytesPerTxn() const {
    const double n = static_cast<double>(index->size());
    if (index->static_mode() || index->durable()) {
      return static_cast<double>(DirectoryBytes(dir)) / n;
    }
    return static_cast<double>(index->node_count()) *
           sgtree::kDefaultPageSize / n;
  }
};

// Builds an in-memory index by routed single inserts, timing each one.
std::unique_ptr<sgtree::ShardedIndex> BuildByInsertion(
    const sgtree::Dataset& data, std::vector<double>* insert_us) {
  auto index = std::make_unique<sgtree::ShardedIndex>(IndexOptions());
  insert_us->reserve(data.transactions.size());
  for (const sgtree::Transaction& txn : data.transactions) {
    const Clock::time_point start = Clock::now();
    index->Insert(txn);
    insert_us->push_back(MicrosSince(start));
  }
  return index;
}

bool StartServer(const WorkloadSpec& spec, const std::string& manifest,
                 Deployment* d, std::string* error) {
  sgtree::serve::ServerOptions options;
  options.cache_entries = spec.cache_entries;
  options.replicas.num_replicas = spec.replicas;
  options.replicas.manifest_path = manifest;
  options.replicas.index_options = IndexOptions();
  d->server = sgtree::serve::Server::Create(d->index.get(), options, error);
  return d->server != nullptr && d->server->Start(error);
}

std::unique_ptr<Deployment> SetUp(const WorkloadSpec& spec,
                                  const RunOptions& run, int attempt,
                                  std::string* error) {
  auto d = std::make_unique<Deployment>();
  d->data = sgtree::QuestGenerator(DataOptions(spec)).Generate();
  d->stream = MakeStream(spec, run.seed, run.seconds);
  if (spec.kind != WorkloadKind::kBatchKnn) {
    d->dir = fs::path(run.work_dir) /
             (std::string(spec.name) + "-" + std::to_string(::getpid()) +
              "-" + std::to_string(attempt));
    std::error_code ec;
    fs::remove_all(d->dir, ec);
    fs::create_directories(d->dir, ec);
  }
  switch (spec.kind) {
    case WorkloadKind::kBatchKnn:
      d->index = BuildByInsertion(d->data, &d->build_insert_us);
      return d;
    case WorkloadKind::kServeZipf: {
      const std::string manifest = (d->dir / "static.sgt").string();
      {
        auto dynamic = BuildByInsertion(d->data, &d->build_insert_us);
        if (!dynamic->SaveStatic(manifest, error)) return nullptr;
      }
      d->index = sgtree::ShardedIndex::Load(manifest, IndexOptions(), error);
      if (d->index == nullptr || !StartServer(spec, manifest, d.get(), error)) {
        return nullptr;
      }
      return d;
    }
    case WorkloadKind::kMixedRw:
      d->index = sgtree::ShardedIndex::OpenDurable(
          sgtree::Env::Posix(), d->dir.string(), IndexOptions(), error);
      if (d->index == nullptr ||
          !d->index->AdoptBulkLoaded(d->data, {}, error) ||
          !StartServer(spec, "", d.get(), error)) {
        return nullptr;
      }
      return d;
  }
  return nullptr;
}

/// The measured period is cut into equal windows. A query timing is
/// reported from the best window: the lowest window p50 and tail, the
/// highest window rate. On a shared machine outside load only ever adds
/// time, and it comes in stretches of seconds to minutes (the CPU speed of
/// the 4-core VM this was tuned on drifted by up to 1.5x); the best window
/// is the one least disturbed, and its value repeats across runs where the
/// median window's does not. The closed loop uses kClosedWindows windows,
/// a fixed count so a faster program does not get more tries. The open
/// loop, whose query count is fixed by its schedule, uses as many windows
/// as keep kWindowSamples queries in each (enough for a p99), up to
/// kMaxOpenWindows.
constexpr int kClosedWindows = 5;
constexpr int kMaxOpenWindows = 15;
constexpr size_t kWindowSamples = 1000;

/// What one measurement produced, across the workload kinds.
struct Measured {
  struct Timed {
    double offset_s = 0;  // Start of the request (open loop: due time).
    double latency_us = 0;
  };
  struct Batch {  // Closed loop only.
    double offset_s = 0;
    double queries = 0;
    double seconds = 0;
  };
  std::vector<double> query_us;
  std::vector<Timed> timed_queries;
  std::vector<Batch> batches;
  std::vector<double> insert_us;
  std::vector<double> late_us;
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint32_t connections = 0;
  double tracing_overhead_pct = 0;  // Traced vs untraced operations.
  GateReport gate;
  std::vector<sgtree::Transaction> acked_inserts;
  ServerScrape server;  // The workload server's numbers, open loop only.
  double linger_us = 0;
};

// batch_knn: back-to-back QueryRouter batches for `seconds`; the caller is
// one of the executor's lanes. In a traced run every other batch is traced.
void MeasureBatchKnn(const WorkloadSpec& spec, const RunOptions& run,
                     Deployment* d, SpanRecorder* spans, Measured* m) {
  const std::vector<QueryRequest>& pool = d->stream.pool;
  sgtree::QueryExecutorOptions exec_options;
  exec_options.num_threads = Nproc();
  sgtree::QueryExecutor executor(exec_options);
  sgtree::QueryRouter router(*d->index, &executor);
  auto batch_at = [&](size_t b) {
    const size_t first = (b * spec.batch_size) % pool.size();
    return std::vector<QueryRequest>(
        pool.begin() + static_cast<ptrdiff_t>(first),
        pool.begin() + static_cast<ptrdiff_t>(
                           std::min(first + spec.batch_size, pool.size())));
  };
  router.Run(batch_at(0));  // Warm-up: first-touch allocations.

  // Sampled among the first batches, which every run gets through.
  const std::vector<size_t> sampled =
      SampleIndexes(std::min<size_t>(pool.size(), 16 * spec.batch_size),
                    kBatchGateSamples, DeriveSeed(run.seed, 4));
  std::vector<int32_t> slot(pool.size(), -1);
  for (size_t i = 0; i < sampled.size(); ++i) {
    slot[sampled[i]] = static_cast<int32_t>(i);
  }
  std::vector<QueryResult> answers(sampled.size());
  std::vector<bool> answered(sampled.size(), false);

  double phase_queries[2] = {0, 0};
  double phase_seconds[2] = {0, 0};
  const Clock::time_point start = Clock::now();
  for (size_t b = 0; SecondsSince(start) < run.seconds; ++b) {
    const std::vector<QueryRequest> batch = batch_at(b);
    const int phase = run.trace && b % 2 == 1 ? 1 : 0;
    const double offset_s = SecondsSince(start);
    const Clock::time_point batch_start = Clock::now();
    std::vector<QueryResult> results;
    {
      ScopedSpan span(phase == 1 ? spans : nullptr, "QueryRouter::Run", 0, b);
      results = router.Run(batch);
    }
    const double batch_s = SecondsSince(batch_start);
    phase_seconds[phase] += batch_s;
    phase_queries[phase] += static_cast<double>(results.size());
    m->batches.push_back(
        {offset_s, static_cast<double>(results.size()), batch_s});
    const size_t first = (b * spec.batch_size) % pool.size();
    for (size_t i = 0; i < results.size(); ++i) {
      m->query_us.push_back(results[i].elapsed_us);
      m->timed_queries.push_back({offset_s, results[i].elapsed_us});
      if (!results[i].ok()) ++m->failed;
      const int32_t s = slot[first + i];
      if (s >= 0 && !answered[static_cast<size_t>(s)]) {
        answers[static_cast<size_t>(s)] = std::move(results[i]);
        answered[static_cast<size_t>(s)] = true;
      }
    }
  }
  m->wall_s = SecondsSince(start);
  m->attempted = m->query_us.size();
  m->connections = 1;
  if (run.trace && phase_queries[0] > 0 && phase_queries[1] > 0) {
    const double untraced = phase_queries[0] / phase_seconds[0];
    const double traced = phase_queries[1] / phase_seconds[1];
    m->tracing_overhead_pct = 100.0 * (untraced / traced - 1.0);
  }

  const sgtree::LinearScan scan(d->data);
  for (size_t i = 0; i < sampled.size(); ++i) {
    if (answered[i]) CheckAnswer(scan, pool[sampled[i]], answers[i], &m->gate);
  }
}

// serve_zipf and mixed_rw: the open-loop schedule over TCP, then the gate.
bool MeasureOpenLoop(const WorkloadSpec& spec, const RunOptions& run,
                     Deployment* d, SpanRecorder* spans, Measured* m,
                     std::string* error) {
  const RequestStream& stream = d->stream;
  const uint32_t connections = std::min(kConnections, Nproc());
  std::vector<size_t> sampled;
  if (spec.kind == WorkloadKind::kServeZipf) {
    sampled = SampleIndexes(stream.ops.size(), kServeGateSamples,
                            DeriveSeed(run.seed, 4));
  }
  // The server's own numbers include the warm-up: resetting its registry
  // would also reset the exec-latency history its adaptive linger reads.
  RunOpenLoop(d->server->port(), stream.pool, stream.warmup, connections, {},
              nullptr);
  const LoadResult load =
      RunOpenLoop(d->server->port(), stream.pool, stream.ops, connections,
                  sampled, run.trace ? spans : nullptr);
  if (!ScrapeServer(d->server->port(), &m->server, error)) return false;
  m->linger_us = static_cast<double>(d->server->batcher()->linger_us());
  m->wall_s = load.wall_s;
  m->connections = load.connections;
  m->attempted = stream.ops.size();
  m->failed = load.transport_errors;
  std::vector<double> phase_us[2];
  for (size_t i = 0; i < stream.ops.size(); ++i) {
    const Op& op = stream.ops[i];
    const OpRecord& rec = load.ops[i];
    m->late_us.push_back(rec.late_us);
    if (!rec.ok) {
      ++m->failed;
      continue;
    }
    if (op.insert) {
      m->insert_us.push_back(rec.latency_us);
      m->acked_inserts.push_back(op.txn);
    } else {
      m->query_us.push_back(rec.latency_us);
      m->timed_queries.push_back(
          {static_cast<double>(op.due_us) / 1e6, rec.latency_us});
      phase_us[rec.traced ? 1 : 0].push_back(rec.latency_us);
    }
  }
  if (run.trace && !phase_us[0].empty() && !phase_us[1].empty()) {
    const double untraced = Summarize(phase_us[0]).p50;
    const double traced = Summarize(phase_us[1]).p50;
    m->tracing_overhead_pct = 100.0 * (traced / untraced - 1.0);
  }

  if (spec.kind == WorkloadKind::kServeZipf) {
    const sgtree::LinearScan scan(d->data);
    for (size_t s = 0; s < load.sampled.size(); ++s) {
      if (!load.ops[load.sampled[s]].ok) continue;  // Already counted.
      const Op& op = stream.ops[load.sampled[s]];
      CheckAnswer(scan, stream.pool[op.request], load.sampled_answers[s],
                  &m->gate);
    }
    return true;
  }

  // mixed_rw: at a quiescent point, the served answers must equal brute
  // force over the initial data plus every acknowledged insert.
  for (const sgtree::Transaction& txn : m->acked_inserts) {
    d->data.transactions.push_back(txn);
  }
  const sgtree::LinearScan scan(d->data);
  sgtree::serve::Client client;
  if (!client.Connect("127.0.0.1", d->server->port(), 5000)) {
    *error = "gate connect: " + client.error();
    return false;
  }
  for (const size_t i : SampleIndexes(stream.pool.size(), kMixedGateSamples,
                                      DeriveSeed(run.seed, 4))) {
    ++m->attempted;
    QueryResult answer;
    if (client.Query(stream.pool[i], &answer) !=
        sgtree::serve::Client::Status::kOk) {
      ++m->failed;
      continue;
    }
    CheckAnswer(scan, stream.pool[i], answer, &m->gate);
  }
  return true;
}

void PrintSummary(const char* what, const Summary& s) {
  std::printf("%-10s n=%zu p50=%.1f us p%.2f=%.1f us\n", what, s.samples,
              s.p50, s.tail_percentile, s.tail);
}

/// The best window's query p50, tail and (closed loop) rate; see
/// kClosedWindows.
struct BestWindow {
  double p50 = 0;
  double tail = 0;
  double qps = 0;  // 0 for the open loop.
};

BestWindow SummarizeWindows(const Measured& m, double seconds) {
  const int windows =
      m.batches.empty()
          ? static_cast<int>(std::clamp<size_t>(
                m.timed_queries.size() / kWindowSamples, 1, kMaxOpenWindows))
          : kClosedWindows;
  auto window_of = [&](double offset_s) {
    return std::clamp(static_cast<int>(offset_s * windows / seconds), 0,
                      windows - 1);
  };
  std::vector<std::vector<double>> window_us(windows);
  for (const Measured::Timed& t : m.timed_queries) {
    window_us[window_of(t.offset_s)].push_back(t.latency_us);
  }
  std::vector<double> window_queries(windows, 0);
  std::vector<double> window_busy_s(windows, 0);
  for (const Measured::Batch& b : m.batches) {
    window_queries[window_of(b.offset_s)] += b.queries;
    window_busy_s[window_of(b.offset_s)] += b.seconds;
  }
  std::vector<double> p50;
  std::vector<double> tail;
  std::vector<double> qps;
  for (int w = 0; w < windows; ++w) {
    if (window_us[w].empty()) continue;
    const Summary s = Summarize(window_us[w]);
    std::printf("window %d: n=%zu p50=%.1f us p%.2f=%.1f us", w, s.samples,
                s.p50, s.tail_percentile, s.tail);
    p50.push_back(s.p50);
    tail.push_back(s.tail);
    if (window_busy_s[w] > 0) {
      qps.push_back(window_queries[w] / window_busy_s[w]);
      std::printf(" qps=%.1f", qps.back());
    }
    std::printf("\n");
  }
  return {*std::min_element(p50.begin(), p50.end()),
          *std::min_element(tail.begin(), tail.end()),
          qps.empty() ? 0 : *std::max_element(qps.begin(), qps.end())};
}

void PrintSpanTotals(const SpanRecorder& spans) {
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : TotalsByName(spans.Snapshot())) {
    std::printf("%-28s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6);
  }
}

void AddLayerMetrics(const WorkloadSpec& spec, const LayerReport& layers,
                     const ServerScrape& server, double linger_us,
                     double client_p50_us, const Measured& m,
                     RunResult* result) {
  result->Add("common.xor_count_ns", layers.xor_count_ns, "ns");
  result->Add("common.min_dist_bound_ns", layers.min_dist_bound_ns, "ns");
  result->Add("storage.buffer_hit_ratio", layers.buffer_hit_ratio, "ratio");
  result->Add("storage.random_ios_per_query", layers.random_ios_per_query,
              "count");
  result->Add("sgtree.execute_us_p50", layers.execute_us_p50, "us");
  result->Add("sgtree.nodes_visited_per_query", layers.nodes_visited_per_query,
              "count");
  result->Add("sgtree.signatures_tested_per_query",
              layers.signatures_tested_per_query, "count");
  result->Add("sgtree.prune_ratio", layers.prune_ratio, "ratio");
  result->Add("sgtree.pct_data", layers.pct_data, "%");
  result->Add("sgtree.false_drop_ratio", layers.false_drop_ratio, "ratio");
  result->Add("sgtree.insert_us_p50", layers.insert_us_p50, "us");
  result->Add("baseline.scan_us_p50", layers.scan_us_p50, "us");
  result->Add("baseline.tree_speedup",
              layers.execute_us_p50 > 0
                  ? layers.scan_us_p50 / layers.execute_us_p50
                  : 0,
              "ratio");
  result->Add("exec.batch_qps", layers.exec_batch_qps, "1/s");
  result->Add("exec.lane_efficiency", layers.exec_lane_efficiency, "ratio");
  result->Add("shard.router_us_per_query", layers.router_us_per_query, "us");
  result->Add("shard.lane_efficiency", layers.shard_lane_efficiency, "ratio");
  result->Add("shard.part_skew", layers.part_skew, "ratio");
  const double requests = static_cast<double>(server.admitted + server.shed);
  const double lookups =
      static_cast<double>(server.cache_hits + server.cache_misses);
  result->Add("server.request_us_p50", server.request_us_p50, "us");
  result->Add("server.request_us_p99", server.request_us_p99, "us");
  result->Add("server.exec_us_p50", server.exec_us_p50, "us");
  result->Add("server.batch_size_mean", server.batch_size_mean, "count");
  result->Add("server.queue_depth_mean", server.queue_depth_mean, "count");
  result->Add("server.linger_us", linger_us, "us");
  result->Add("server.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(server.cache_hits) / lookups
                          : 0,
              "ratio");
  result->Add("server.shed_frac",
              requests > 0 ? static_cast<double>(server.shed) / requests : 0,
              "ratio");
  result->Add("server.hedges_fired", static_cast<double>(server.hedges_fired),
              "count");
  result->Add("net.query_us_p50", layers.tcp_us_p50, "us");
  result->Add("net.ping_us_p50", layers.ping_us_p50, "us");
  result->Add("net.codec_us", layers.codec_us, "us");
  result->Add("net.overhead_us_p50", client_p50_us - server.request_us_p50,
              "us");
  result->Add("durability.insert_us_p50", layers.durable_insert_us_p50, "us");
  result->Add("durability.wal_bytes_per_insert", layers.wal_bytes_per_insert,
              "bytes");
  result->Add("durability.fsyncs_per_insert", layers.fsyncs_per_insert,
              "count");
  std::vector<double> late = m.late_us;
  result->Add("loadgen.late_p99_us",
              spec.rate_per_s > 0 ? Summarize(late).tail : 0, "us");
  result->Add("loadgen.connections", static_cast<double>(m.connections),
              "count");
  result->Add("trace.overhead_pct", m.tracing_overhead_pct, "%");
}

}  // namespace

int RunBenchmark(const RunOptions& run) {
  const WorkloadSpec* spec_ptr = FindWorkload(run.workload);
  if (spec_ptr == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", run.workload.c_str());
    return 1;
  }
  const WorkloadSpec& spec = *spec_ptr;
  const EnvStamp stamp = ReadEnvStamp();
  std::error_code ec;
  fs::create_directories(run.work_dir, ec);
  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", spec.name,
              static_cast<unsigned long long>(run.seed), run.seconds,
              run.trace ? 1 : 0);

  // Set-up, repeated so its time is a median; only the last one is kept.
  std::string error;
  std::vector<double> setup_s;
  std::vector<double> build_insert_p50;
  std::vector<double> build_insert_tail;
  std::unique_ptr<Deployment> d;
  const int setups = run.trace ? 1 : kSetupRepeats;
  for (int attempt = 0; attempt < setups; ++attempt) {
    d.reset();
    const Clock::time_point start = Clock::now();
    d = SetUp(spec, run, attempt, &error);
    if (d == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(start));
    std::printf("set-up %d: %.3f s\n", attempt, setup_s.back());
    if (!d->build_insert_us.empty()) {
      const Summary s = Summarize(d->build_insert_us);
      PrintSummary("inserts", s);
      build_insert_p50.push_back(s.p50);
      build_insert_tail.push_back(s.tail);
    }
  }
  const size_t initial_txns = d->data.transactions.size();
  const double index_nodes = static_cast<double>(d->index->node_count());

  SpanRecorder spans;
  spans.set_enabled(run.trace);
  Measured m;
  if (spec.kind == WorkloadKind::kBatchKnn) {
    MeasureBatchKnn(spec, run, d.get(), &spans, &m);
  } else if (!MeasureOpenLoop(spec, run, d.get(), &spans, &m, &error)) {
    std::fprintf(stderr, "measurement failed: %s\n", error.c_str());
    return 1;
  }
  m.failed += m.gate.wrong;
  for (const std::string& example : m.gate.examples) {
    std::printf("WRONG ANSWER: %s\n", example.c_str());
  }

  const Summary queries = Summarize(m.query_us);
  // Read-only workloads insert only while building: their insert latency
  // is ShardedIndex::Insert at build time, from the best set-up (the same
  // reasoning as the best window, see kClosedWindows).
  Summary inserts;
  if (spec.kind == WorkloadKind::kMixedRw) {
    inserts = Summarize(m.insert_us);
    PrintSummary("inserts", inserts);
  } else {
    inserts.p50 =
        *std::min_element(build_insert_p50.begin(), build_insert_p50.end());
    inserts.tail =
        *std::min_element(build_insert_tail.begin(), build_insert_tail.end());
  }
  std::vector<double> late = m.late_us;
  const Summary lateness = Summarize(late);
  PrintSummary("queries", queries);
  const BestWindow windowed = SummarizeWindows(m, run.seconds);
  if (spec.rate_per_s > 0) {
    PrintSummary("late", lateness);
    const ServerScrape& srv = m.server;
    std::printf("server: request p50 %.1f us, p99 %.1f us; cache %llu hits "
                "/ %llu misses; shed %llu; hedges %llu; batch mean %.2f\n",
                srv.request_us_p50, srv.request_us_p99,
                static_cast<unsigned long long>(srv.cache_hits),
                static_cast<unsigned long long>(srv.cache_misses),
                static_cast<unsigned long long>(srv.shed),
                static_cast<unsigned long long>(srv.hedges_fired),
                srv.batch_size_mean);
  }
  std::printf("gate: %llu checked, %llu wrong; failed %llu of %llu "
              "(failed_frac %.6f)\n",
              static_cast<unsigned long long>(m.gate.checked),
              static_cast<unsigned long long>(m.gate.wrong),
              static_cast<unsigned long long>(m.failed),
              static_cast<unsigned long long>(m.attempted),
              m.attempted > 0 ? static_cast<double>(m.failed) /
                                    static_cast<double>(m.attempted)
                              : 0.0);

  RunResult result;
  result.correct = m.gate.wrong == 0 && m.gate.checked > 0;
  result.attempted = m.attempted;
  result.failed = m.failed;

  if (!run.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    // Closed loop: the best window's rate. Open loop: the completion rate
    // over the whole schedule (the offered rate unless the server falls
    // behind or fails requests).
    result.Add("query_qps",
               windowed.qps > 0
                   ? windowed.qps
                   : static_cast<double>(queries.samples) / m.wall_s,
               "1/s");
    result.Add("query_p50_us", windowed.p50, "us");
    result.Add("query_p99_us", windowed.tail, "us");
    result.Add("insert_p50_us", inserts.p50, "us");
    result.Add("insert_p99_us", inserts.tail, "us");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    result.Add("index_bytes_per_txn", d->IndexBytesPerTxn(), "bytes");
  } else {
    if (d->server != nullptr) {  // The ladder starts a server of its own.
      d->server->Stop();
      d->server.reset();
    }
    LayerInputs inputs;
    inputs.spec = &spec;
    inputs.seed = run.seed;
    inputs.index = d->index.get();
    inputs.data = &d->data;
    inputs.queries.assign(
        d->stream.pool.begin(),
        d->stream.pool.begin() +
            static_cast<ptrdiff_t>(std::min(kLadderQueries,
                                            d->stream.pool.size())));
    inputs.work_dir = run.work_dir;
    inputs.lanes = stamp.nproc;
    inputs.spans = &spans;
    LayerReport layers;
    if (!MeasureLayers(inputs, &layers, &error)) {
      std::fprintf(stderr, "layer probes failed: %s\n", error.c_str());
      return 1;
    }
    // Server numbers come from the workload's own server where it has one;
    // batch_knn has none, so they come from the ladder's server.
    const bool own_server = spec.kind != WorkloadKind::kBatchKnn;
    AddLayerMetrics(spec, layers, own_server ? m.server : layers.server,
                    own_server ? m.linger_us : layers.linger_us,
                    own_server ? queries.p50 : layers.tcp_us_p50, m, &result);
    std::printf("ladder (us per query): execute %.1f (1 lane, shard 0), "
                "executor %.1f (%u lanes, shard 0), router %.1f (%u shards), "
                "tcp %.1f, scan %.1f (shard 0)\n",
                layers.execute_us_p50, 1e6 / layers.exec_batch_qps,
                stamp.nproc, layers.router_us_per_query, kShards,
                layers.tcp_us_p50, layers.scan_us_p50);
    PrintSpanTotals(spans);
    fs::create_directories(fs::path(run.work_dir) / "traces", ec);
    const std::string trace_path =
        (fs::path(run.work_dir) / "traces" /
         (std::string(spec.name) + "-seed" + std::to_string(run.seed) +
          ".spans.json"))
            .string();
    if (spans.WriteJson(trace_path)) {
      std::printf("spans written to %s\n", trace_path.c_str());
    }
  }

  // The stamp: environment, sizes, and whether the open loop was valid.
  std::string invalid;
  if (spec.rate_per_s > 0 && lateness.tail > kLateBoundUs) {
    invalid = "load generator p" + FormatNumber(lateness.tail_percentile) +
              " lateness " + FormatNumber(lateness.tail) + " us exceeds " +
              FormatNumber(kLateBoundUs) + " us";
  }
  if (m.connections > stamp.nproc) {
    invalid = "more connections than cores";
  }
  std::printf(
      "{\"env\": {%s, \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %s, \"loop\": \"%s\", \"rate_per_s\": %s, "
      "\"connections\": %u, \"shards\": %u, \"initial_transactions\": %zu, "
      "\"indexed_transactions\": %zu, \"index_nodes\": %s, \"valid\": %s, "
      "\"invalid_reason\": \"%s\"}}\n",
      EnvStampJsonFields(stamp).c_str(), spec.name,
      static_cast<unsigned long long>(run.seed),
      FormatNumber(run.seconds).c_str(), run.trace ? "true" : "false",
      spec.rate_per_s > 0 ? "open" : "closed",
      FormatNumber(spec.rate_per_s).c_str(), m.connections, kShards,
      initial_txns, d->index->size(), FormatNumber(index_nodes).c_str(),
      invalid.empty() ? "true" : "false", JsonEscape(invalid).c_str());
  std::printf("%s\n", ResultJson(result).c_str());
  std::fflush(stdout);

  if (!result.correct) return kExitWrongAnswers;
  if (!invalid.empty()) return kExitInvalid;
  return kExitOk;
}

}  // namespace perfbench
