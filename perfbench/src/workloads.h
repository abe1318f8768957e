#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/quest_generator.h"
#include "data/transaction.h"
#include "exec/query_api.h"

namespace perfbench {

/// The three workloads. Every input is generated here from the run's seed;
/// the program under test only ever sees the generated requests.
enum class WorkloadKind {
  kBatchKnn,   // Closed loop, in process: back-to-back QueryRouter batches.
  kServeZipf,  // Open loop over TCP: static replicated index, Zipf keys.
  kMixedRw,    // Open loop over TCP: durable index, ~20% inserts.
};

/// Shared by every workload.
inline constexpr uint32_t kShards = 4;
inline constexpr uint32_t kNeighbors = 10;   // k of the k-NN query types.
inline constexpr double kRangeEpsilon = 4;   // Hamming radius of range queries.
inline constexpr uint32_t kConnections = 4;  // Open loop; capped at nproc.

struct WorkloadSpec {
  const char* name = "";
  WorkloadKind kind = WorkloadKind::kBatchKnn;
  // Initial dataset: Quest T<avg_size>.I<avg_itemset>.D<transactions>.
  double avg_size = 10;
  double avg_itemset = 6;
  uint32_t transactions = 100'000;
  size_t pool_size = 0;    // Distinct requests the keys are drawn from.
  // Closed loop only.
  uint32_t batch_size = 0;
  // Open loop only.
  double rate_per_s = 0;        // Fixed send rate of the whole generator.
  double zipf_theta = 0;        // 0 = uniform keys.
  double insert_fraction = 0;   // Share of operations that are inserts.
  size_t cache_entries = 0;     // Server result cache.
  uint32_t replicas = 1;        // Static index replicas (serve_zipf).
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<const WorkloadSpec*> AllWorkloads();

/// Independent, reproducible seeds for the different generated streams of
/// one run (splitmix64 of seed and tag).
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// The initial dataset is the paper's named instance, one fixed dataset for
/// every run, generated with this Quest seed. The run's seed varies what is
/// sent: the query pool, the key order and the insert stream.
inline constexpr uint64_t kDataSeed = 1;

/// Quest options of the initial dataset.
sgtree::QuestOptions DataOptions(const WorkloadSpec& spec);

/// Insert transactions of a second generator, seeded from the run's seed
/// (its own pattern pool, so the data drifts away from the initial set),
/// with tids first_tid, first_tid + 1, ...
std::vector<sgtree::Transaction> DriftTransactions(const WorkloadSpec& spec,
                                                   uint64_t seed,
                                                   uint32_t count,
                                                   uint64_t first_tid);

/// One scheduled operation of an open-loop stream.
struct Op {
  int64_t due_us = 0;     // Send time, relative to the start of the run.
  bool insert = false;
  uint32_t request = 0;   // Query: index into RequestStream::pool.
  sgtree::Transaction txn;  // Insert: the transaction.
};

/// Everything a workload sends. Closed-loop workloads cycle through `pool`
/// in order, `batch_size` requests per batch. Open-loop ones first send
/// `warmup` (queries only, same rate and key distribution, unmeasured) so
/// the result cache reaches its steady state, then the measured `ops`.
struct RequestStream {
  std::vector<sgtree::QueryRequest> pool;
  std::vector<Op> warmup;
  std::vector<Op> ops;
};

/// Length of the unmeasured warm-up of the open-loop workloads.
inline constexpr double kWarmupSeconds = 2;

/// The request stream of `spec` for a run of `seconds` seconds. The same
/// (spec, seed, seconds) always gives the same stream.
RequestStream MakeStream(const WorkloadSpec& spec, uint64_t seed,
                         double seconds);

/// The stream as the bytes the program receives (canonical wire encoding of
/// every request and insert), each preceded by its due time — what the
/// byte-identity test compares.
std::vector<uint8_t> EncodeStream(const RequestStream& stream);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
