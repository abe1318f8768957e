#ifndef SGTREE_DURABILITY_ENV_H_
#define SGTREE_DURABILITY_ENV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sgtree {

/// Random-access file handle used by the durability layer (checkpoint
/// images and the write-ahead log). All offsets are absolute; there is no
/// seek state, so several handles can interleave operations freely.
///
/// Durability contract: WriteAt/Append affect the OS view of the file
/// immediately but are only guaranteed to survive a crash after Sync()
/// returns true. Every method returns false on I/O failure.
class File {
 public:
  virtual ~File() = default;

  /// Reads up to `n` bytes at `offset` into `*out` (resized to the bytes
  /// actually read — short reads at end-of-file are not an error).
  virtual bool ReadAt(uint64_t offset, size_t n,
                      std::vector<uint8_t>* out) const = 0;

  /// Writes exactly `data[0, n)` at `offset`, extending the file if needed.
  virtual bool WriteAt(uint64_t offset, const uint8_t* data, size_t n) = 0;

  /// Appends exactly `data[0, n)` at the current end of file.
  virtual bool Append(const uint8_t* data, size_t n) = 0;

  /// Flushes written data to durable media (fsync).
  virtual bool Sync() = 0;

  /// Truncates or extends the file to `size` bytes.
  virtual bool Truncate(uint64_t size) = 0;

  /// Current size in bytes, or UINT64_MAX on failure.
  virtual uint64_t Size() const = 0;
};

/// A read-only view of an entire file's contents, produced by
/// Env::MapReadOnly. The bytes stay valid and immutable for the lifetime of
/// this object; `data()` is 8-byte aligned (page-aligned for real mappings,
/// word-buffer-backed for the fallback), so callers may read aligned 64-bit
/// words at 8-aligned offsets into it. An empty file yields {nullptr, 0}.
class FileMapping {
 public:
  virtual ~FileMapping() = default;

  virtual const uint8_t* data() const = 0;
  virtual size_t size() const = 0;

  /// True when the bytes are served straight from the page cache (a real
  /// mmap) rather than a private copy read through the Env.
  virtual bool zero_copy() const { return false; }
};

/// Filesystem abstraction that every file the index writes or maps goes
/// through. The production implementation (Env::Posix()) maps straight onto
/// POSIX calls; the FaultInjectingEnv wrapper (fault_injection.h) threads
/// deterministic crash/corruption hooks under every durable component at
/// once. It sits below the static image reader and the durable tree, so
/// both use it without depending on each other.
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` for read/write, creating it when `create` is true.
  /// Returns nullptr on failure.
  virtual std::unique_ptr<File> Open(const std::string& path,
                                     bool create) = 0;

  virtual bool FileExists(const std::string& path) const = 0;
  virtual bool Delete(const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual bool Rename(const std::string& from, const std::string& to) = 0;

  /// Creates `path` (one level) if it does not exist.
  virtual bool CreateDir(const std::string& path) = 0;

  /// Fsyncs the directory containing `path`, making renames/creates in it
  /// durable. A no-op success on platforms where directories cannot be
  /// opened.
  virtual bool SyncDir(const std::string& path) = 0;

  /// Maps the whole of `path` read-only. The base implementation reads the
  /// file into a private aligned buffer via Open/ReadAt — so wrapping
  /// environments (FaultInjectingEnv) keep their fault coverage without
  /// knowing about mappings — while PosixEnv overrides it with a true
  /// zero-copy mmap (common/mmap_file.h). Returns nullptr on failure.
  virtual std::unique_ptr<FileMapping> MapReadOnly(const std::string& path);

  /// The process-wide POSIX environment.
  static Env* Posix();
};

/// Crash-atomically replaces the contents of `path` with `data` through
/// `env`: the bytes go to the sibling `path.tmp`, which is fsynced and
/// renamed over `path`, and then the directory is fsynced. A crash at any
/// point leaves the old file or the complete new one, never a mix. Every
/// static image, shard manifest, checkpoint image and fresh log is
/// published this way. Returns false with `*error` set (when non-null) on
/// failure.
bool AtomicWriteFile(Env* env, const std::string& path,
                     const std::vector<uint8_t>& data,
                     std::string* error = nullptr);

}  // namespace sgtree

#endif  // SGTREE_DURABILITY_ENV_H_
