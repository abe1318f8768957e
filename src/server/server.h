#ifndef SGTREE_SERVER_SERVER_H_
#define SGTREE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "common/sync.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "server/admission.h"
#include "server/batcher.h"
#include "server/protocol.h"
#include "server/replica_set.h"
#include "server/result_cache.h"
#include "shard/sharded_index.h"

namespace sgtree {
namespace serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = kernel-assigned (read back via port()).
  uint16_t port = 0;
  /// Admission budget: concurrent query requests past admission; the rest
  /// are shed with BUSY.
  uint32_t max_inflight = 256;
  /// Result cache capacity in entries; 0 disables caching.
  size_t cache_entries = 4096;
  /// Per-frame socket deadline for connected clients. The wait for the
  /// NEXT request (the length prefix) is unbounded — an idle client is not
  /// an error — but once a frame starts, it must finish in this budget.
  int io_timeout_ms = 30000;
  ReplicaSetOptions replicas;
  /// Metrics registry; nullptr = the server owns a private one.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The sgtree_serve front end (DESIGN.md §10): a TCP server speaking the
/// length-prefixed protocol of server/protocol.h over an index backend.
/// A query request flows
///
///   connection reader -> admission (BUSY past max_inflight)
///     -> result cache probe (epoch-keyed; a hit skips everything below)
///     -> batcher (a free dispatcher runs everything queued as one
///        QueryRouter batch; nothing waits for company)
///     -> replica set (the least-loaded live replica runs the batch on
///        the dispatcher's thread)
///   -> encode answer, populate cache, write frame.
///
/// Consistency: epoch_ counts successful mutations (insert / checkpoint).
/// Every cache key embeds the epoch current when the probe happened, and a
/// computed result is only cached if the epoch is STILL the one the probe
/// saw — so a result that raced a mutation is never stored, and a mutation
/// both bumps the epoch (orphaning old keys) and clears the cache
/// (reclaiming their memory).
///
/// Mutations on a dynamic/durable backend are serialized against query
/// batches via the replica set's primary mutex (the router reads the index
/// on the const path; an insert while a batch is in flight would race it).
/// Static backends refuse mutations with an explicit error instead.
///
/// Every stage exports serve.* metrics through the registry — counters
/// (requests, admitted, shed, cache hits/misses/evictions, inserts,
/// checkpoints, protocol errors), queue-depth / batch-size /
/// execution / end-to-end latency histograms — scrapeable over the
/// protocol's metrics frame as JSON or Prometheus text.
class Server {
 public:
  /// `index` is borrowed and must outlive the server.
  static std::unique_ptr<Server> Create(ShardedIndex* index,
                                        const ServerOptions& options,
                                        std::string* error);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and starts the accept loop and the dispatchers.
  /// Returns false with *error on bind failure.
  bool Start(std::string* error);

  /// Drains: stops accepting, fails queued queries, unblocks and joins
  /// every connection thread. Idempotent.
  void Stop();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  obs::MetricsRegistry* metrics() { return metrics_; }

  /// Test hooks: reach into the stages the failure/consistency tests
  /// manipulate (FailReplica, cache size).
  ReplicaSet* replica_set() { return replica_set_.get(); }
  ResultCache* result_cache() { return cache_.get(); }
  Batcher* batcher() { return batcher_.get(); }
  AdmissionController* admission() { return &admission_; }

 private:
  Server(ShardedIndex* index, const ServerOptions& options);

  struct Conn {
    net::Socket socket;
    std::thread thread;
    /// Set by the connection thread on exit; the accept loop reaps.
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(net::Socket* socket);

  /// One request frame. Returns false when the connection must close
  /// (protocol error or I/O failure).
  bool HandleFrame(net::Socket* socket, FrameType type,
                   const std::vector<uint8_t>& payload);
  bool HandleQuery(net::Socket* socket, const std::vector<uint8_t>& payload);
  bool HandleInsert(net::Socket* socket, const std::vector<uint8_t>& payload);
  bool HandleCheckpoint(net::Socket* socket);
  bool HandleMetrics(net::Socket* socket,
                     const std::vector<uint8_t>& payload);

  bool SendFrame(net::Socket* socket, FrameType type,
                 const std::vector<uint8_t>& payload);
  bool SendError(net::Socket* socket, const std::string& message);

  /// Bumps the epoch and clears the cache after a successful mutation.
  void Invalidate();

  ShardedIndex* const index_;
  const ServerOptions options_;

  obs::MetricsRegistry* metrics_;            // owned_metrics_ or external.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;

  AdmissionController admission_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<ReplicaSet> replica_set_;
  std::unique_ptr<Batcher> batcher_;

  /// Mutation counter; see the class comment for the consistency rule.
  std::atomic<uint64_t> epoch_{0};

  net::ListenSocket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;

  Mutex conns_mu_;
  std::list<std::unique_ptr<Conn>> conns_ SGTREE_GUARDED_BY(conns_mu_);

  // Cached metric handles (registry lookups take a lock; these are hot).
  obs::Counter* requests_ = nullptr;
  obs::Counter* connections_ = nullptr;
  obs::Counter* inserts_ = nullptr;
  obs::Counter* checkpoints_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Histogram* request_us_ = nullptr;
};

}  // namespace serve
}  // namespace sgtree

#endif  // SGTREE_SERVER_SERVER_H_
