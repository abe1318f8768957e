#include "durability/wal.h"

#include <cstring>

#include "common/crc32.h"
#include "durability/byte_io.h"

namespace sgtree {
namespace {

constexpr char kWalMagic[8] = {'S', 'G', 'W', 'L', '0', '0', '0', '1'};

// type + tid + count: the bytes of an operation record before its
// positions.
constexpr size_t kOpRecordHeader = 1 + 8 + 4;

void AppendFrame(const WalRecord& record, std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  EncodeWalRecord(record, &payload);
  AppendU32(static_cast<uint32_t>(payload.size()), out);
  AppendU32(Crc32c(payload), out);
  out->insert(out->end(), payload.begin(), payload.end());
}

obs::Counter* CounterOrNull(obs::MetricsRegistry* registry,
                            const char* name) {
  return registry == nullptr ? nullptr : registry->GetCounter(name);
}

}  // namespace

uint64_t Wal::RecordRegionStart() { return sizeof(kWalMagic); }

void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out) {
  AppendU8(static_cast<uint8_t>(record.type), out);
  switch (record.type) {
    case WalRecordType::kCheckpoint:
      AppendU64(record.checkpoint_seq, out);
      AppendU64(record.op_seq, out);
      break;
    case WalRecordType::kInsert:
    case WalRecordType::kErase:
      AppendU64(record.tid, out);
      AppendU32(static_cast<uint32_t>(record.positions.size()), out);
      for (const uint32_t position : record.positions) {
        AppendU32(position, out);
      }
      break;
  }
}

bool DecodeWalRecord(const std::vector<uint8_t>& payload,
                     WalRecord* record) {
  *record = WalRecord{};  // no stale fields when the caller reuses records
  size_t offset = 0;
  uint8_t type = 0;
  if (!ReadU8(payload, &offset, &type)) return false;
  switch (static_cast<WalRecordType>(type)) {
    case WalRecordType::kCheckpoint:
      record->type = WalRecordType::kCheckpoint;
      return ReadU64(payload, &offset, &record->checkpoint_seq) &&
             ReadU64(payload, &offset, &record->op_seq) &&
             offset == payload.size();
    case WalRecordType::kInsert:
    case WalRecordType::kErase: {
      record->type = static_cast<WalRecordType>(type);
      uint32_t count = 0;
      if (!ReadU64(payload, &offset, &record->tid) ||
          !ReadU32(payload, &offset, &count) ||
          payload.size() - kOpRecordHeader != uint64_t{count} * 4) {
        return false;
      }
      record->positions.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        ReadU32(payload, &offset, &record->positions[i]);
        if (i > 0 && record->positions[i] <= record->positions[i - 1]) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

bool WalScanner::Next(WalRecord* record) {
  if (done_) return false;
  // Frame header.
  if (offset_ + 8 > size_) {
    done_ = true;
    return false;
  }
  std::vector<uint8_t> header(data_ + offset_, data_ + offset_ + 8);
  size_t hoff = 0;
  uint32_t length = 0;
  uint32_t stored_crc = 0;
  ReadU32(header, &hoff, &length);
  ReadU32(header, &hoff, &stored_crc);
  if (length == 0 || length > kMaxWalRecordSize ||
      offset_ + 8 + length > size_) {
    done_ = true;
    return false;
  }
  std::vector<uint8_t> payload(data_ + offset_ + 8,
                               data_ + offset_ + 8 + length);
  if (Crc32c(payload) != stored_crc || !DecodeWalRecord(payload, record)) {
    done_ = true;
    return false;
  }
  offset_ += 8 + length;
  valid_end_ = offset_;
  ++records_;
  return true;
}

Wal::Wal(std::unique_ptr<File> file, uint64_t size,
         obs::MetricsRegistry* metrics)
    : file_(std::move(file)),
      size_(size),
      appends_counter_(CounterOrNull(metrics, "wal.appends")),
      fsyncs_counter_(CounterOrNull(metrics, "wal.fsyncs")),
      bytes_counter_(CounterOrNull(metrics, "wal.bytes")) {}

std::unique_ptr<Wal> Wal::Publish(Env* env, const std::string& path,
                                  const WalRecord& marker,
                                  obs::MetricsRegistry* metrics,
                                  std::string* error) {
  std::vector<uint8_t> bytes(kWalMagic, kWalMagic + sizeof(kWalMagic));
  AppendFrame(marker, &bytes);
  if (!AtomicWriteFile(env, path, bytes, error)) return nullptr;
  return OpenForAppend(env, path, bytes.size() - sizeof(kWalMagic), metrics,
                       error);
}

std::unique_ptr<Wal> Wal::OpenForAppend(Env* env, const std::string& path,
                                        uint64_t append_offset,
                                        obs::MetricsRegistry* metrics,
                                        std::string* error) {
  auto file = env->Open(path, /*create=*/false);
  const uint64_t end = sizeof(kWalMagic) + append_offset;
  if (file == nullptr || (file->Size() != end && !file->Truncate(end))) {
    if (error != nullptr) *error = "cannot open wal " + path;
    return nullptr;
  }
  return std::unique_ptr<Wal>(new Wal(std::move(file), end, metrics));
}

bool Wal::ReadRecordRegion(Env* env, const std::string& path,
                           std::vector<uint8_t>* records_region,
                           std::string* error) {
  records_region->clear();
  if (!env->FileExists(path)) return true;
  auto file = env->Open(path, /*create=*/false);
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open wal " + path;
    return false;
  }
  const uint64_t size = file->Size();
  if (size == UINT64_MAX) {
    if (error != nullptr) *error = "cannot stat wal " + path;
    return false;
  }
  if (size < sizeof(kWalMagic)) return true;
  std::vector<uint8_t> magic;
  if (!file->ReadAt(0, sizeof(kWalMagic), &magic) ||
      std::memcmp(magic.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    if (error != nullptr) *error = path + " is not a wal file";
    return false;
  }
  if (!file->ReadAt(sizeof(kWalMagic),
                    static_cast<size_t>(size - sizeof(kWalMagic)),
                    records_region)) {
    if (error != nullptr) *error = "cannot read wal " + path;
    return false;
  }
  return true;
}

bool Wal::Append(const WalRecord& record) {
  std::vector<uint8_t> frame;
  AppendFrame(record, &frame);
  // The scanner would stop at an oversized frame, losing the operation.
  if (frame.size() - 8 > kMaxWalRecordSize) return false;
  MutexLock lock(&mu_);
  if (!file_->Append(frame.data(), frame.size())) return false;
  size_ += frame.size();
  ++records_appended_;
  ++dirty_appends_;
  if (appends_counter_ != nullptr) appends_counter_->Increment();
  if (bytes_counter_ != nullptr) bytes_counter_->Increment(frame.size());
  return true;
}

bool Wal::Commit() {
  MutexLock lock(&mu_);
  if (dirty_appends_ == 0) return true;
  if (!file_->Sync()) return false;
  dirty_appends_ = 0;
  if (fsyncs_counter_ != nullptr) fsyncs_counter_->Increment();
  return true;
}

}  // namespace sgtree
