#ifndef SGTREE_DURABILITY_FAULT_INJECTION_H_
#define SGTREE_DURABILITY_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "durability/env.h"

namespace sgtree {

/// Deterministic fault schedule of a FaultInjectingEnv. A "write" below is
/// any mutating file operation (WriteAt, Append, Truncate, Rename), counted
/// 1-based across every file opened through the env, so a crash point
/// sweeps the interleaved image + log write sequence exactly as a real kill
/// would.
struct FaultPlan {
  /// The Nth write is the crash point: it fails (after optionally applying
  /// a torn prefix) and every later mutating operation fails too — the
  /// process is "dead" and only what already reached the file survives,
  /// which is precisely the on-disk state recovery must cope with.
  /// 0 disables write faults.
  uint64_t kill_at_write = 0;

  /// Bytes of the fatal write that still reach the file before the crash
  /// (a torn / partial sector write). The prefix is clamped to the write's
  /// size; UINT64_MAX means "no tearing" (the fatal write is dropped
  /// whole).
  uint64_t torn_prefix_bytes = UINT64_MAX;

  /// Bit-flip read fault: the Nth read (1-based) has one bit inverted in
  /// its returned buffer, modeling media or bus corruption that checksums
  /// must catch. 0 disables read faults.
  uint64_t flip_at_read = 0;

  /// Which bit of the faulty read's buffer to invert (taken modulo the
  /// buffer's bit length).
  uint64_t flip_bit = 0;
};

/// Mutable fault state: the plan plus the operation counters. Shared by the
/// env wrapper and the test driving it, so the test can read how many
/// writes a clean run issues and then sweep kill_at_write over that range.
/// Thread-safe: the per-shard threads of a sharded InsertBatch write
/// through one env concurrently, and the count, the crash point and the
/// dead flag they share change under one lock.
class FaultState {
 public:
  explicit FaultState(const FaultPlan& plan = {}) : plan_(plan) {}

  void set_plan(const FaultPlan& plan) SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    plan_ = plan;
  }

  uint64_t writes_issued() const SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return writes_;
  }
  uint64_t reads_issued() const SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return reads_;
  }
  bool dead() const SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return dead_;
  }

  /// Resets counters and the dead flag (keeps the plan).
  void Reset() SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    writes_ = 0;
    reads_ = 0;
    dead_ = false;
  }

  /// Counts one mutating operation. Returns the number of payload bytes to
  /// apply: `n` when the operation proceeds, a torn prefix < n at the crash
  /// point, with *fail set when the operation must report failure.
  size_t OnWrite(size_t n, bool* fail) SGTREE_EXCLUDES(mu_);

  /// Counts one read; flips a bit of `data` when this read is the faulty
  /// one.
  void OnRead(std::vector<uint8_t>* data) SGTREE_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  FaultPlan plan_ SGTREE_GUARDED_BY(mu_);
  uint64_t writes_ SGTREE_GUARDED_BY(mu_) = 0;
  uint64_t reads_ SGTREE_GUARDED_BY(mu_) = 0;
  bool dead_ SGTREE_GUARDED_BY(mu_) = false;
};

/// Env wrapper threading the fault schedule under every file the durability
/// layer opens — checkpoint images and the log see one interleaved write
/// numbering. After the crash point, reads still work (recovery re-opens
/// with a clean env anyway; these reads only serve debugging).
class FaultInjectingEnv final : public Env {
 public:
  FaultInjectingEnv(Env* base, FaultState* state)
      : base_(base), state_(state) {}

  std::unique_ptr<File> Open(const std::string& path, bool create) override;
  bool FileExists(const std::string& path) const override {
    return base_->FileExists(path);
  }
  bool Delete(const std::string& path) override {
    return base_->Delete(path);
  }
  bool Rename(const std::string& from, const std::string& to) override;
  bool CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  bool SyncDir(const std::string& path) override;

 private:
  Env* base_;
  FaultState* state_;
};

}  // namespace sgtree

#endif  // SGTREE_DURABILITY_FAULT_INJECTION_H_
