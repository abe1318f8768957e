#ifndef SGTREE_DURABILITY_WAL_H_
#define SGTREE_DURABILITY_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "durability/env.h"
#include "obs/metrics.h"

namespace sgtree {

/// WAL record types. A log is the checkpoint marker followed by one record
/// per acknowledged operation; each operation record commits itself.
/// (Codes 2-5 belonged to the retired page-image log and are never read.)
enum class WalRecordType : uint8_t {
  kCheckpoint = 1,  // checkpoint_seq, op_seq: the log's first record
  kInsert = 6,      // tid, set-bit positions
  kErase = 7,       // tid, set-bit positions
};

/// One log record. Payload layouts (little-endian):
///   kCheckpoint: u8 type | u64 checkpoint_seq | u64 op_seq
///   kInsert, kErase: u8 type | u64 tid | u32 count | count x u32 position
/// Positions are the signature's set bits in strictly increasing order, so
/// a framed insert of |t| items is 21 + 4|t| bytes.
struct WalRecord {
  WalRecordType type = WalRecordType::kCheckpoint;
  /// kCheckpoint: the image `checkpoint-<checkpoint_seq>.sgs` this log
  /// follows, and the op_seq that image holds.
  uint64_t checkpoint_seq = 0;
  uint64_t op_seq = 0;
  /// kInsert / kErase.
  uint64_t tid = 0;
  std::vector<uint32_t> positions;
};

/// Serializes the record payload (without framing).
void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out);

/// Decodes a record payload. Returns false on malformed input (unknown
/// type, short or trailing bytes, positions not strictly increasing)
/// without crashing or over-reading — fuzzed directly by fuzz/fuzz_wal.cc.
bool DecodeWalRecord(const std::vector<uint8_t>& payload, WalRecord* record);

/// Upper bound on a sane framed record; anything larger is treated as
/// corruption by the scanner.
inline constexpr uint32_t kMaxWalRecordSize = 1u << 20;

/// Forward scan over the record region of a WAL (the bytes after the file
/// magic). Framing per record: u32 payload_len | u32 crc32c(payload) |
/// payload. The scan stops cleanly at the first torn, truncated, or
/// checksum-failing frame — the defining property of a log tail — and
/// reports how many bytes of clean prefix it accepted.
class WalScanner {
 public:
  WalScanner(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Advances to the next record. Returns false at the clean end or tear.
  bool Next(WalRecord* record);

  /// Offset just past the last complete, well-formed record.
  uint64_t valid_end() const { return valid_end_; }
  /// True when bytes exist past valid_end (torn tail or corruption).
  bool torn() const { return done_ && valid_end_ < size_; }
  uint64_t records() const { return records_; }

 private:
  const uint8_t* data_;
  size_t size_;
  uint64_t offset_ = 0;
  uint64_t valid_end_ = 0;
  uint64_t records_ = 0;
  bool done_ = false;
};

/// Append-only write-ahead log. Appends buffer nothing: every record hits
/// the OS immediately; Commit() issues the (group) fsync that makes all
/// records appended since the previous Commit durable at once — one fsync
/// per logical operation or per batch, not per record.
///
/// A log file is never truncated to start over: Publish writes a new log
/// holding only a checkpoint marker and renames it over the old one, so a
/// crash leaves either the old log or the new one. Its wal.* counters are
/// bound at construction, so a log published at a checkpoint keeps
/// counting into the same registry.
///
/// Lock protocol: mu_ serializes the file and its bookkeeping (offset,
/// dirty-append count), so concurrent committers can interleave Append()
/// calls with group Commit() calls — the classic group-commit shape where
/// one fsync covers every record appended before it, whoever appended
/// them. The Wal lock only guarantees records never interleave mid-frame.
class Wal {
 public:
  /// Publishes a log holding only `marker` at `path` (AtomicWriteFile:
  /// temp file, fsync, rename, directory fsync) and opens it for appending
  /// after the marker. `metrics` (may be null) receives wal.appends,
  /// wal.fsyncs and wal.bytes for the records appended later.
  static std::unique_ptr<Wal> Publish(Env* env, const std::string& path,
                                      const WalRecord& marker,
                                      obs::MetricsRegistry* metrics,
                                      std::string* error);

  /// Opens an existing log for appending at `append_offset` (a valid_end
  /// from a recovery scan; any torn tail past it is truncated away).
  static std::unique_ptr<Wal> OpenForAppend(Env* env, const std::string& path,
                                            uint64_t append_offset,
                                            obs::MetricsRegistry* metrics,
                                            std::string* error);

  /// Reads the record region (bytes after the magic) of the log at `path`
  /// into `*records_region`. A missing or shorter-than-magic file yields
  /// an empty region, which holds no checkpoint marker; a wrong magic is an
  /// error.
  static bool ReadRecordRegion(Env* env, const std::string& path,
                               std::vector<uint8_t>* records_region,
                               std::string* error);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one framed record. Returns false on I/O failure.
  bool Append(const WalRecord& record) SGTREE_EXCLUDES(mu_);

  /// Fsyncs appended records (no-op when nothing was appended since the
  /// last Commit). The group-commit point.
  bool Commit() SGTREE_EXCLUDES(mu_);

  /// Bytes of the log file, including magic.
  uint64_t size_bytes() const SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return size_;
  }
  uint64_t records_appended() const SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return records_appended_;
  }

  /// Offset of the first record in a WAL file (the magic length).
  static uint64_t RecordRegionStart();

 private:
  Wal(std::unique_ptr<File> file, uint64_t size,
      obs::MetricsRegistry* metrics);

  mutable Mutex mu_;
  /// The File pointer is set once at construction; the pointee (append
  /// offset, sync state) is what the lock guards.
  std::unique_ptr<File> file_ SGTREE_PT_GUARDED_BY(mu_);
  uint64_t size_ SGTREE_GUARDED_BY(mu_);
  uint64_t records_appended_ SGTREE_GUARDED_BY(mu_) = 0;
  uint64_t dirty_appends_ SGTREE_GUARDED_BY(mu_) = 0;
  obs::Counter* const appends_counter_;
  obs::Counter* const fsyncs_counter_;
  obs::Counter* const bytes_counter_;
};

}  // namespace sgtree

#endif  // SGTREE_DURABILITY_WAL_H_
