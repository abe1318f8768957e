#include "server/server.h"

#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "durability/byte_io.h"
#include "obs/export.h"

namespace sgtree {
namespace serve {
namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Power-of-two count buckets for queue depth / batch size histograms.
std::vector<double> CountBuckets() {
  return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

}  // namespace

Server::Server(ShardedIndex* index, const ServerOptions& options)
    : index_(index), options_(options), admission_(options.max_inflight) {}

std::unique_ptr<Server> Server::Create(ShardedIndex* index,
                                       const ServerOptions& options,
                                       std::string* error) {
  std::unique_ptr<Server> server(new Server(index, options));
  if (options.metrics != nullptr) {
    server->metrics_ = options.metrics;
  } else {
    server->owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    server->metrics_ = server->owned_metrics_.get();
  }
  obs::MetricsRegistry* m = server->metrics_;
  server->requests_ = m->GetCounter("serve.requests");
  server->connections_ = m->GetCounter("serve.connections");
  server->inserts_ = m->GetCounter("serve.inserts");
  server->checkpoints_ = m->GetCounter("serve.checkpoints");
  server->protocol_errors_ = m->GetCounter("serve.protocol_errors");
  server->request_us_ = m->GetHistogram("serve.request_us");
  server->admission_.BindMetrics(m->GetCounter("serve.admitted"),
                                 m->GetCounter("serve.shed"));
  server->cache_ = std::make_unique<ResultCache>(options.cache_entries);
  server->cache_->BindMetrics(m->GetCounter("serve.cache.hits"),
                              m->GetCounter("serve.cache.misses"),
                              m->GetCounter("serve.cache.evictions"));
  ReplicaSetOptions replica_options = options.replicas;
  if (replica_options.router.metrics == nullptr) {
    replica_options.router.metrics = m;  // shard.* joins serve.* in scrapes.
  }
  server->replica_set_ = ReplicaSet::Create(index, replica_options, error);
  if (server->replica_set_ == nullptr) return nullptr;
  server->replica_set_->BindMetrics(m->GetCounter("serve.hedges_fired"),
                                    m->GetCounter("serve.hedges_won"),
                                    m->GetHistogram("serve.run_us"));
  server->batcher_ = std::make_unique<Batcher>(
      options.batcher,
      [rs = server->replica_set_.get()](
          const std::vector<QueryRequest>& requests,
          Batcher::Completion on_complete) {
        rs->RunHedged(requests, std::move(on_complete));
      });
  server->batcher_->BindMetrics(
      m->GetHistogram("serve.queue_depth", CountBuckets()),
      m->GetHistogram("serve.batch_size", CountBuckets()),
      m->GetHistogram("serve.exec_us"));
  return server;
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  listener_ = net::ListenSocket::Listen(options_.port, /*backlog=*/128, error);
  if (!listener_.valid()) return false;
  port_ = listener_.port();
  batcher_->Start();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return true;
}

void Server::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (started_) {
    // Join before closing: AcceptLoop reads the listener's fd in Accept, so
    // closing it first would race. The loop sees stop_ within one 100 ms
    // poll.
    accept_thread_.join();
    listener_.Close();
  }
  // Unblock every connection reader, then join. In-flight queries drain
  // through the still-running batcher while we wait, so no client that
  // already got past admission is dropped without an answer.
  {
    MutexLock lock(&conns_mu_);
    for (auto& conn : conns_) conn->socket.Shutdown();
  }
  for (;;) {
    std::unique_ptr<Conn> conn;
    {
      MutexLock lock(&conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.front());
      conns_.pop_front();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
  batcher_->Stop();
}

void Server::AcceptLoop() {
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    // Reap finished connections so a long-lived server does not accumulate
    // joinable threads (Stop handles whatever is left).
    {
      MutexLock lock(&conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          (*it)->thread.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    net::Socket socket;
    std::string error;
    const net::AcceptStatus status =
        listener_.Accept(/*timeout_ms=*/100, &socket, &error);
    if (status == net::AcceptStatus::kTimeout) continue;
    if (status == net::AcceptStatus::kError) {
      if (stop_.load(std::memory_order_acquire)) return;
      continue;  // Transient (e.g. EMFILE on the accepted fd); keep serving.
    }
    connections_->Increment();
    auto conn = std::make_unique<Conn>();
    conn->socket = std::move(socket);
    Conn* raw = conn.get();
    {
      MutexLock lock(&conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      ServeConnection(&raw->socket);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void Server::ServeConnection(net::Socket* socket) {
  uint8_t preamble[kPreambleBytes];
  std::string error;
  if (socket->RecvAll(preamble, sizeof(preamble), options_.io_timeout_ms,
                      &error) != net::IoStatus::kOk) {
    return;
  }
  uint32_t version = 0;
  std::memcpy(&version, preamble + 4, 4);
  if (std::memcmp(preamble, kPreambleMagic, 4) != 0 ||
      version != kProtocolVersion) {
    protocol_errors_->Increment();
    return;  // Not our protocol (or a version we do not speak): just close.
  }
  if (socket->SendAll(preamble, sizeof(preamble), options_.io_timeout_ms,
                      &error) != net::IoStatus::kOk) {
    return;
  }
  std::vector<uint8_t> payload;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    uint8_t header[4];
    // Unbounded wait for the next frame: idle clients are fine; Shutdown()
    // at server stop is what unblocks this.
    if (socket->RecvAll(header, 4, /*timeout_ms=*/-1, &error) !=
        net::IoStatus::kOk) {
      return;
    }
    uint32_t length = 0;
    for (int b = 0; b < 4; ++b) {
      length |= static_cast<uint32_t>(header[b]) << (8 * b);
    }
    if (length == 0 || length > kMaxFrameBytes) {
      protocol_errors_->Increment();
      SendError(socket, "frame length " + std::to_string(length) +
                            " out of range");
      return;
    }
    uint8_t type = 0;
    if (socket->RecvAll(&type, 1, options_.io_timeout_ms, &error) !=
        net::IoStatus::kOk) {
      return;
    }
    payload.resize(length - 1);
    if (length > 1 &&
        socket->RecvAll(payload.data(), payload.size(),
                        options_.io_timeout_ms,
                        &error) != net::IoStatus::kOk) {
      return;
    }
    if (!HandleFrame(socket, static_cast<FrameType>(type), payload)) return;
  }
}

bool Server::HandleFrame(net::Socket* socket, FrameType type,
                         const std::vector<uint8_t>& payload) {
  switch (type) {
    case FrameType::kQuery:
      return HandleQuery(socket, payload);
    case FrameType::kInsert:
      return HandleInsert(socket, payload);
    case FrameType::kCheckpoint:
      return HandleCheckpoint(socket);
    case FrameType::kPing:
      return SendFrame(socket, FrameType::kPong, {});
    case FrameType::kEpochReq: {
      std::vector<uint8_t> out;
      AppendU64(epoch(), &out);
      return SendFrame(socket, FrameType::kEpochResp, out);
    }
    case FrameType::kMetricsReq:
      return HandleMetrics(socket, payload);
    default:
      protocol_errors_->Increment();
      SendError(socket, "unexpected frame type " +
                            std::to_string(static_cast<int>(type)));
      return false;
  }
}

bool Server::HandleQuery(net::Socket* socket,
                         const std::vector<uint8_t>& payload) {
  const int64_t start = NowUs();
  requests_->Increment();
  AdmissionSlot slot(&admission_);
  if (!slot.admitted()) return SendFrame(socket, FrameType::kBusy, {});
  QueryRequest request;
  std::string error;
  if (!DecodeRequest(payload.data(), payload.size(), &request, &error)) {
    protocol_errors_->Increment();
    SendError(socket, error);
    return false;
  }
  // The decoder only accepts canonical bytes (it rejects padding and
  // trailing garbage), so `payload` IS the cache key material.
  const uint64_t epoch_at_probe = epoch();
  const std::string key = ResultCache::Key(epoch_at_probe, payload);
  std::vector<uint8_t> answer;
  if (!cache_->Get(key, &answer)) {
    QueryResult result;
    std::shared_ptr<PendingQuery> pending = batcher_->Submit(request);
    if (pending == nullptr) {
      result.error = "server shutting down";
    } else {
      result = pending->Wait();
    }
    answer = EncodeAnswer(result);
    // Only cache a result the data could not have moved under: if the
    // epoch advanced while we executed, this answer may mix pre- and
    // post-mutation state, and the bumped epoch means no future probe
    // would find it under `key` semantics anyway.
    if (result.ok() && epoch() == epoch_at_probe) cache_->Put(key, answer);
  }
  request_us_->Observe(static_cast<double>(NowUs() - start));
  return SendFrame(socket, FrameType::kAnswer, answer);
}

bool Server::HandleInsert(net::Socket* socket,
                          const std::vector<uint8_t>& payload) {
  Transaction txn;
  std::string error;
  if (!DecodeInsert(payload.data(), payload.size(), &txn, &error)) {
    protocol_errors_->Increment();
    SendError(socket, error);
    return false;
  }
  bool ok = false;
  std::string message;
  if (index_->static_mode()) {
    message = "index is static (immutable); rebuild to change it";
  } else {
    // The primary mutex serializes this against query batches on the
    // (single) replica — the router's const read path must not observe a
    // half-applied insert.
    MutexLock lock(replica_set_->primary_run_mutex());
    ok = index_->Insert(txn);
    if (!ok) message = "insert was not acknowledged by the owning shard";
  }
  if (ok) {
    inserts_->Increment();
    Invalidate();
  }
  std::vector<uint8_t> out;
  AppendU8(ok ? 1 : 0, &out);
  AppendU32(static_cast<uint32_t>(message.size()), &out);
  out.insert(out.end(), message.begin(), message.end());
  AppendU64(epoch(), &out);
  return SendFrame(socket, FrameType::kOpAck, out);
}

bool Server::HandleCheckpoint(net::Socket* socket) {
  bool ok = false;
  std::string message;
  if (index_->static_mode()) {
    message = "index is static (immutable); nothing to checkpoint";
  } else {
    MutexLock lock(replica_set_->primary_run_mutex());
    ok = index_->Checkpoint(&message);
  }
  if (ok) {
    checkpoints_->Increment();
    Invalidate();
  }
  std::vector<uint8_t> out;
  AppendU8(ok ? 1 : 0, &out);
  AppendU32(static_cast<uint32_t>(message.size()), &out);
  out.insert(out.end(), message.begin(), message.end());
  AppendU64(epoch(), &out);
  return SendFrame(socket, FrameType::kOpAck, out);
}

bool Server::HandleMetrics(net::Socket* socket,
                           const std::vector<uint8_t>& payload) {
  uint8_t format = 0;
  if (payload.size() == 1) {
    format = payload[0];
  } else if (!payload.empty()) {
    protocol_errors_->Increment();
    SendError(socket, "metrics request payload must be empty or one byte");
    return false;
  }
  std::string body;
  if (format == 0) {
    body = obs::ToJson(*metrics_);
  } else if (format == 1) {
    body = obs::ToPrometheus(*metrics_);
  } else {
    protocol_errors_->Increment();
    SendError(socket, "unknown metrics format " + std::to_string(format));
    return false;
  }
  return SendFrame(socket, FrameType::kMetricsResp,
                   std::vector<uint8_t>(body.begin(), body.end()));
}

bool Server::SendFrame(net::Socket* socket, FrameType type,
                       const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> frame = EncodeFrame(type, payload);
  std::string error;
  return socket->SendAll(frame.data(), frame.size(), options_.io_timeout_ms,
                         &error) == net::IoStatus::kOk;
}

bool Server::SendError(net::Socket* socket, const std::string& message) {
  std::vector<uint8_t> payload;
  payload.reserve(4 + message.size());
  AppendU32(static_cast<uint32_t>(message.size()), &payload);
  payload.insert(payload.end(), message.begin(), message.end());
  return SendFrame(socket, FrameType::kError, payload);
}

void Server::Invalidate() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  cache_->Clear();
}

}  // namespace serve
}  // namespace sgtree
