#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/transaction.h"
#include "exec/query_api.h"
#include "loadgen.h"
#include "shard/sharded_index.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// What the per-layer probes of the traced run work on: the workload's own
/// index, data and queries.
struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  sgtree::ShardedIndex* index = nullptr;  // In-memory, static or durable.
  const sgtree::Dataset* data = nullptr;  // Everything the index holds.
  std::vector<sgtree::QueryRequest> queries;  // The ladder's query set.
  std::string work_dir;                   // Scratch files go below here.
  uint32_t lanes = 1;                     // Executor lanes (nproc).
  SpanRecorder* spans = nullptr;
};

/// The ladder and the probes beside it. The "single tree" is shard 0 of
/// the workload's index: one unsharded tree over a quarter of the data.
struct LayerReport {
  // common: the out-of-line kernels, on the workload's query x leaf pairs.
  double xor_count_ns = 0;
  double min_dist_bound_ns = 0;
  // Rung 1, Execute on shard 0, one lane, cold pool per query.
  double execute_us_p50 = 0;
  double nodes_visited_per_query = 0;
  double signatures_tested_per_query = 0;
  double prune_ratio = 0;       // Pruned / tested.
  double pct_data = 0;          // % of shard 0 verified per query.
  double false_drop_ratio = 0;  // False drops / verified, predicate queries.
  // Beside rung 1: LinearScanBackend over the same shard.
  double scan_us_p50 = 0;
  // Rung 2, QueryExecutor::Run on shard 0 with `lanes` lanes.
  double exec_batch_qps = 0;
  double exec_lane_efficiency = 0;
  // Rung 3, QueryRouter::Run over every shard.
  double router_us_per_query = 0;
  double shard_lane_efficiency = 0;
  double part_skew = 0;
  double buffer_hit_ratio = 0;
  double random_ios_per_query = 0;
  // Rung 4, Client::Query over TCP to a server of its own (one connection).
  double tcp_us_p50 = 0;
  ServerScrape server;
  double linger_us = 0;
  double ping_us_p50 = 0;
  double codec_us = 0;  // EncodeRequest + DecodeAnswer per query.
  // Update paths.
  double insert_us_p50 = 0;               // In-memory SgTree::Insert replay.
  double durable_insert_us_p50 = 0;       // Durable ShardedIndex::Insert.
  double wal_bytes_per_insert = 0;
  double fsyncs_per_insert = 0;
};

/// Runs every probe. Returns false with `*error` set when a probe could not
/// run (a server that would not start, a file that could not be written).
bool MeasureLayers(const LayerInputs& inputs, LayerReport* report,
                   std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
