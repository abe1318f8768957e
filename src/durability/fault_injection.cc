#include "durability/fault_injection.h"

#include <algorithm>

namespace sgtree {

size_t FaultState::OnWrite(size_t n, bool* fail) {
  MutexLock lock(&mu_);
  if (dead_) {
    *fail = true;
    return 0;
  }
  ++writes_;  // counted even without a kill plan: the clean-run baseline
  if (plan_.kill_at_write == 0 || writes_ < plan_.kill_at_write) {
    *fail = false;
    return n;
  }
  // The crash point: apply at most the torn prefix, then die.
  dead_ = true;
  *fail = true;
  if (plan_.torn_prefix_bytes == UINT64_MAX) return 0;
  return static_cast<size_t>(
      std::min<uint64_t>(plan_.torn_prefix_bytes, n));
}

void FaultState::OnRead(std::vector<uint8_t>* data) {
  MutexLock lock(&mu_);
  ++reads_;
  if (plan_.flip_at_read == 0) return;
  if (reads_ != plan_.flip_at_read || data->empty()) return;
  const uint64_t bit = plan_.flip_bit % (data->size() * 8);
  (*data)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

namespace {

class FaultInjectingFile final : public File {
 public:
  FaultInjectingFile(std::unique_ptr<File> base, FaultState* state)
      : base_(std::move(base)), state_(state) {}

  bool ReadAt(uint64_t offset, size_t n,
              std::vector<uint8_t>* out) const override {
    if (!base_->ReadAt(offset, n, out)) return false;
    state_->OnRead(out);
    return true;
  }

  bool WriteAt(uint64_t offset, const uint8_t* data, size_t n) override {
    bool fail = false;
    const size_t apply = state_->OnWrite(n, &fail);
    if (apply > 0) base_->WriteAt(offset, data, apply);
    return !fail && base_ != nullptr;
  }

  bool Append(const uint8_t* data, size_t n) override {
    bool fail = false;
    const size_t apply = state_->OnWrite(n, &fail);
    if (apply > 0) base_->Append(data, apply);
    return !fail;
  }

  bool Sync() override {
    // Syncs are not counted as writes, but a dead process cannot sync.
    return !state_->dead() && base_->Sync();
  }

  bool Truncate(uint64_t size) override {
    bool fail = false;
    state_->OnWrite(0, &fail);
    if (fail) return false;
    return base_->Truncate(size);
  }

  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<File> base_;
  FaultState* state_;
};

}  // namespace

std::unique_ptr<File> FaultInjectingEnv::Open(const std::string& path,
                                              bool create) {
  if (state_->dead()) return nullptr;
  auto base = base_->Open(path, create);
  if (base == nullptr) return nullptr;
  return std::make_unique<FaultInjectingFile>(std::move(base), state_);
}

bool FaultInjectingEnv::Rename(const std::string& from,
                               const std::string& to) {
  bool fail = false;
  state_->OnWrite(0, &fail);
  if (fail) return false;
  return base_->Rename(from, to);
}

bool FaultInjectingEnv::SyncDir(const std::string& path) {
  return !state_->dead() && base_->SyncDir(path);
}

}  // namespace sgtree
