#ifndef SGTREE_SERVER_PROTOCOL_H_
#define SGTREE_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/transaction.h"
#include "exec/query_api.h"

namespace sgtree {
namespace serve {

/// The sgtree_serve wire protocol (DESIGN.md §10): length-prefixed binary
/// frames over TCP, all integers little-endian.
///
/// Connection preamble: the client sends 8 bytes — "SGRV" + u32 protocol
/// version — and the server echoes the same 8 bytes back (or closes on a
/// version it does not speak). After the handshake both directions carry
/// frames:
///
///     u32 length | u8 type | payload[length - 1]
///
/// `length` covers the type byte plus the payload, so a frame is never
/// empty and a reader can pre-validate the allocation against
/// kMaxFrameBytes before touching the payload.
///
/// Query payloads use the CANONICAL REQUEST ENCODING — a pure function of
/// the semantically relevant request fields (the query type, the signature,
/// and only the parameters that type consumes: k for the k-NN types,
/// epsilon for range). Two requests that must return the same answer
/// therefore encode to the same bytes, which is what lets the result cache
/// key on (backend epoch, canonical bytes) without a normalization pass.
///
/// Answer payloads carry the VALUE part of a QueryResult — neighbors, ids,
/// error — not its counters or trace: those are schedule- and
/// cache-dependent, while the value is the part the differential suite
/// proves byte-identical to a direct QueryRouter execution.

inline constexpr char kPreambleMagic[4] = {'S', 'G', 'R', 'V'};
inline constexpr uint32_t kProtocolVersion = 1;
inline constexpr size_t kPreambleBytes = 8;

/// Hostile-input cap on a frame's length field (covers the largest sane
/// range-query answer by orders of magnitude).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Cap on the signature width a request may declare — matches the widest
/// dictionary the generators produce, and bounds the decode allocation.
inline constexpr uint32_t kMaxRequestBits = 1u << 24;

enum class FrameType : uint8_t {
  kQuery = 1,        // client -> server: canonical request bytes.
  kAnswer = 2,       // server -> client: answer encoding.
  kBusy = 3,         // server -> client: admission controller shed this
                     // request; empty payload. Retry later.
  kError = 4,        // server -> client: protocol-level failure (malformed
                     // frame, unknown type); u32 len + message. The
                     // connection closes after an error frame.
  kPing = 5,         // client -> server: empty.
  kPong = 6,         // server -> client: empty.
  kInsert = 7,       // client -> server: u64 tid | u32 n | u32 item[n].
  kOpAck = 8,        // server -> client: u8 ok | u32 len | error bytes |
                     //                   u64 epoch (post-op).
  kCheckpoint = 9,   // client -> server: empty. Durable: folds the WAL.
  kEpochReq = 10,    // client -> server: empty.
  kEpochResp = 11,   // server -> client: u64 epoch.
  kMetricsReq = 12,  // client -> server: empty = JSON, or one byte
                     // u8 format (0 = JSON, 1 = Prometheus text) — the
                     // admin scrape endpoint.
  kMetricsResp = 13, // server -> client: metrics registry export bytes.
};

/// Serialized frame ready to write: length prefix + type + payload.
std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload);

/// Canonical request encoding:
///   u8 type | u32 num_bits | u64 word[WordsForBits(num_bits)]
///   | kKnn / kBestFirstKnn: u32 k
///   | kRange:               u64 epsilon IEEE-754 bits
///   | others:               (nothing)
std::vector<uint8_t> EncodeRequest(const QueryRequest& request);

/// Decodes a canonical request payload. Rejects unknown types, widths over
/// kMaxRequestBits, and any trailing or missing bytes (the encoding is a
/// bijection — anything else would split cache keys). Returns false with a
/// one-line reason.
bool DecodeRequest(const uint8_t* data, size_t size, QueryRequest* request,
                   std::string* error);

/// Answer encoding:
///   u8 ok
///   | ok = 0: u32 len | error bytes
///   | ok = 1: u32 n  | n x (u64 tid, u64 distance IEEE-754 bits)
///             u32 m  | m x u64 id
std::vector<uint8_t> EncodeAnswer(const QueryResult& result);

/// Decodes an answer payload into result->neighbors / ids / error (trace
/// and timing are left default — the wire does not carry them).
bool DecodeAnswer(const uint8_t* data, size_t size, QueryResult* result,
                  std::string* error);

/// Insert payload codec (kInsert frames).
std::vector<uint8_t> EncodeInsert(const Transaction& txn);
bool DecodeInsert(const uint8_t* data, size_t size, Transaction* txn,
                  std::string* error);

}  // namespace serve
}  // namespace sgtree

#endif  // SGTREE_SERVER_PROTOCOL_H_
