#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "report.h"

namespace perfbench {
namespace {

using sgtree::serve::Client;

constexpr int kConnectTimeoutMs = 5000;

// Runs one connection's share of the stream, the ops listed in `mine`.
void DriveConnection(Client* client, uint16_t port,
                     const std::vector<sgtree::QueryRequest>& pool,
                     const std::vector<Op>& ops, uint32_t c,
                     const std::vector<size_t>& mine, Clock::time_point start,
                     const std::vector<int32_t>& sample_slot,
                     SpanRecorder* spans, LoadResult* result,
                     std::atomic<uint64_t>* errors) {
  ScopedSpan connection(spans, "loadgen.connection", 0, c);
  Clock::time_point previous_done = start;
  for (size_t k = 0; k < mine.size(); ++k) {
    const size_t i = mine[k];
    const Op& op = ops[i];
    OpRecord& rec = result->ops[i];
    const Clock::time_point due = start + std::chrono::microseconds(op.due_us);
    std::this_thread::sleep_until(due);
    if (!client->connected() &&
        !client->Connect("127.0.0.1", port, kConnectTimeoutMs)) {
      errors->fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Lateness is the generator's own lag: from when the operation could
    // go out (due, and the connection free) to when it did. Waiting for the
    // previous answer is the server's doing and is already in the latency.
    rec.late_us = std::chrono::duration<double, std::micro>(
                      Clock::now() - std::max(due, previous_done))
                      .count();
    rec.traced = spans != nullptr && k % 2 == 1;
    SpanRecorder* op_spans = rec.traced ? spans : nullptr;
    Client::Status status;
    if (op.insert) {
      ScopedSpan span(op_spans, "Client::Insert", connection.id(), i);
      bool accepted = false;
      std::string message;
      uint64_t epoch = 0;
      status = client->Insert(op.txn, &accepted, &message, &epoch);
      rec.ok = status == Client::Status::kOk && accepted;
    } else {
      sgtree::QueryResult answer;
      {
        ScopedSpan span(op_spans, "Client::Query", connection.id(), i);
        status = client->Query(pool[op.request], &answer);
      }
      rec.ok = status == Client::Status::kOk && answer.ok();
      if (rec.ok && sample_slot[i] >= 0) {
        result->sampled_answers[static_cast<size_t>(sample_slot[i])] =
            std::move(answer);
      }
    }
    previous_done = Clock::now();
    rec.latency_us =
        std::chrono::duration<double, std::micro>(previous_done - due).count();
    if (status == Client::Status::kServerError ||
        status == Client::Status::kTransport) {
      errors->fetch_add(1, std::memory_order_relaxed);
      client->Disconnect();  // Reconnect before the next operation.
    }
  }
}

// The numbers in the JSON array that starts at `pos` (just past '[').
std::vector<double> ParseArray(const std::string& json, size_t pos) {
  std::vector<double> values;
  while (pos < json.size() && json[pos] != ']') {
    char* end = nullptr;
    values.push_back(std::strtod(json.c_str() + pos, &end));
    pos = static_cast<size_t>(end - json.c_str());
    if (pos < json.size() && json[pos] == ',') ++pos;
  }
  return values;
}

bool FindCounter(const std::string& json, const std::string& name,
                 uint64_t* value) {
  const std::string key = "\"" + name + "\":";
  const size_t pos = json.find(key);
  if (pos == std::string::npos) return false;
  *value = std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
  return true;
}

struct ParsedHistogram {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  double count = 0;
  double sum = 0;

  double Mean() const { return count > 0 ? sum / count : 0; }
  double Percentile(double p) const {
    return HistogramPercentile(bounds, counts, p);
  }
};

bool FindHistogram(const std::string& json, const std::string& name,
                   ParsedHistogram* out) {
  const std::string key = "\"" + name + "\":{\"bounds\":[";
  size_t pos = json.find(key);
  if (pos == std::string::npos) return false;
  out->bounds = ParseArray(json, pos + key.size());
  const std::string counts_key = "\"counts\":[";
  pos = json.find(counts_key, pos);
  if (pos == std::string::npos) return false;
  for (const double c : ParseArray(json, pos + counts_key.size())) {
    out->counts.push_back(static_cast<uint64_t>(c));
  }
  const std::string count_key = "\"count\":";
  const std::string sum_key = "\"sum\":";
  const size_t count_pos = json.find(count_key, pos);
  const size_t sum_pos = json.find(sum_key, pos);
  if (count_pos == std::string::npos || sum_pos == std::string::npos) {
    return false;
  }
  out->count = std::strtod(json.c_str() + count_pos + count_key.size(),
                           nullptr);
  out->sum = std::strtod(json.c_str() + sum_pos + sum_key.size(), nullptr);
  return out->counts.size() == out->bounds.size() + 1;
}

}  // namespace

std::vector<uint32_t> AssignConnections(const std::vector<Op>& ops,
                                        uint32_t connections) {
  const bool writer = connections > 1 &&
                      std::any_of(ops.begin(), ops.end(),
                                  [](const Op& op) { return op.insert; });
  const uint32_t first_reader = writer ? 1 : 0;
  const uint32_t readers = connections - first_reader;
  std::vector<uint32_t> out(ops.size());
  size_t queries = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    out[i] = writer && ops[i].insert
                 ? 0
                 : first_reader + static_cast<uint32_t>(queries++ % readers);
  }
  return out;
}

LoadResult RunOpenLoop(uint16_t port,
                       const std::vector<sgtree::QueryRequest>& pool,
                       const std::vector<Op>& ops, uint32_t connections,
                       const std::vector<size_t>& sampled,
                       SpanRecorder* spans) {
  LoadResult result;
  result.connections = std::max<uint32_t>(1, connections);
  result.ops.resize(ops.size());
  std::vector<int32_t> sample_slot(ops.size(), -1);
  for (const size_t i : sampled) {
    if (i >= ops.size() || ops[i].insert) continue;
    sample_slot[i] = static_cast<int32_t>(result.sampled.size());
    result.sampled.push_back(i);
  }
  result.sampled_answers.resize(result.sampled.size());

  std::vector<std::vector<size_t>> per_connection(result.connections);
  const std::vector<uint32_t> assigned =
      AssignConnections(ops, result.connections);
  for (size_t i = 0; i < ops.size(); ++i) {
    per_connection[assigned[i]].push_back(i);
  }
  std::vector<Client> clients(result.connections);
  std::atomic<uint64_t> errors{0};
  for (Client& client : clients) {
    if (!client.Connect("127.0.0.1", port, kConnectTimeoutMs)) {
      errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> threads;
  threads.reserve(result.connections);
  for (uint32_t c = 0; c < result.connections; ++c) {
    threads.emplace_back(DriveConnection, &clients[c], port, std::cref(pool),
                         std::cref(ops), c, std::cref(per_connection[c]),
                         start, std::cref(sample_slot),
                         spans, &result, &errors);
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = SecondsSince(start);
  result.transport_errors = errors.load();
  return result;
}

double HistogramPercentile(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& counts, double p) {
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0 || counts.size() != bounds.size() + 1) return 0;
  const double rank = p / 100.0 * static_cast<double>(total);
  double before = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    const auto in_bucket = static_cast<double>(counts[b]);
    if (in_bucket > 0 && before + in_bucket >= rank) {
      if (b == bounds.size()) return bounds.empty() ? 0 : bounds.back();
      const double lower = b == 0 ? 0 : bounds[b - 1];
      const double fraction = std::clamp((rank - before) / in_bucket, 0.0, 1.0);
      return lower + (bounds[b] - lower) * fraction;
    }
    before += in_bucket;
  }
  return bounds.empty() ? 0 : bounds.back();
}

bool ParseServerScrape(const std::string& json, ServerScrape* out) {
  ParsedHistogram request_us;
  ParsedHistogram exec_us;
  ParsedHistogram batch_size;
  ParsedHistogram queue_depth;
  if (!FindHistogram(json, "serve.request_us", &request_us) ||
      !FindHistogram(json, "serve.exec_us", &exec_us) ||
      !FindHistogram(json, "serve.batch_size", &batch_size) ||
      !FindHistogram(json, "serve.queue_depth", &queue_depth) ||
      !FindCounter(json, "serve.cache.hits", &out->cache_hits) ||
      !FindCounter(json, "serve.cache.misses", &out->cache_misses) ||
      !FindCounter(json, "serve.admitted", &out->admitted) ||
      !FindCounter(json, "serve.shed", &out->shed) ||
      !FindCounter(json, "serve.hedges_fired", &out->hedges_fired)) {
    return false;
  }
  out->request_us_p50 = request_us.Percentile(50);
  out->request_us_p99 = request_us.Percentile(99);
  out->exec_us_p50 = exec_us.Percentile(50);
  out->batch_size_mean = batch_size.Mean();
  out->queue_depth_mean = queue_depth.Mean();
  return true;
}

bool ScrapeServer(uint16_t port, ServerScrape* out, std::string* error) {
  Client client;
  if (!client.Connect("127.0.0.1", port, kConnectTimeoutMs)) {
    *error = "scrape connect: " + client.error();
    return false;
  }
  std::string body;
  if (client.GetMetrics(0, &body) != Client::Status::kOk) {
    *error = "scrape: " + client.error();
    return false;
  }
  if (!ParseServerScrape(body, out)) {
    *error = "scrape: serve.* metrics missing from the export";
    return false;
  }
  return true;
}

}  // namespace perfbench
