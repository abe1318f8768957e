#include "durability/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "common/mmap_file.h"

namespace sgtree {
namespace {

// Fallback mapping: the file's bytes copied into a word-aligned private
// buffer. Used by the base Env::MapReadOnly so environments without a real
// mmap (including fault-injecting wrappers) still satisfy the FileMapping
// alignment contract.
class BufferMapping final : public FileMapping {
 public:
  BufferMapping(std::vector<uint64_t> words, size_t size)
      : words_(std::move(words)), size_(size) {}

  const uint8_t* data() const override {
    return size_ == 0 ? nullptr
                      : reinterpret_cast<const uint8_t*>(words_.data());
  }
  size_t size() const override { return size_; }

 private:
  std::vector<uint64_t> words_;
  size_t size_;
};

// Zero-copy mapping over a real mmap (POSIX environment only).
class PosixMapping final : public FileMapping {
 public:
  explicit PosixMapping(std::unique_ptr<MappedFile> map)
      : map_(std::move(map)) {}

  const uint8_t* data() const override { return map_->data(); }
  size_t size() const override { return map_->size(); }
  bool zero_copy() const override { return true; }

 private:
  std::unique_ptr<MappedFile> map_;
};

class PosixFile final : public File {
 public:
  explicit PosixFile(int fd) : fd_(fd) {}
  ~PosixFile() override { ::close(fd_); }

  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;

  bool ReadAt(uint64_t offset, size_t n,
              std::vector<uint8_t>* out) const override {
    out->resize(n);
    size_t done = 0;
    while (done < n) {
      const ssize_t got =
          ::pread(fd_, out->data() + done, n - done,
                  static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        out->clear();
        return false;
      }
      if (got == 0) break;  // End of file: short read.
      done += static_cast<size_t>(got);
    }
    out->resize(done);
    return true;
  }

  bool WriteAt(uint64_t offset, const uint8_t* data, size_t n) override {
    size_t done = 0;
    while (done < n) {
      const ssize_t put = ::pwrite(fd_, data + done, n - done,
                                   static_cast<off_t>(offset + done));
      if (put < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      done += static_cast<size_t>(put);
    }
    return true;
  }

  bool Append(const uint8_t* data, size_t n) override {
    const uint64_t size = Size();
    if (size == std::numeric_limits<uint64_t>::max()) return false;
    return WriteAt(size, data, n);
  }

  bool Sync() override { return ::fsync(fd_) == 0; }

  bool Truncate(uint64_t size) override {
    return ::ftruncate(fd_, static_cast<off_t>(size)) == 0;
  }

  uint64_t Size() const override {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      return std::numeric_limits<uint64_t>::max();
    }
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
};

class PosixEnv final : public Env {
 public:
  std::unique_ptr<File> Open(const std::string& path, bool create) override {
    const int flags = O_RDWR | O_CLOEXEC | (create ? O_CREAT : 0);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return nullptr;
    return std::make_unique<PosixFile>(fd);
  }

  bool FileExists(const std::string& path) const override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  bool Delete(const std::string& path) override {
    return ::unlink(path.c_str()) == 0;
  }

  bool Rename(const std::string& from, const std::string& to) override {
    return ::rename(from.c_str(), to.c_str()) == 0;
  }

  bool CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) == 0) return true;
    return errno == EEXIST;
  }

  bool SyncDir(const std::string& path) override {
    const size_t slash = path.find_last_of('/');
    std::string dir;
    if (slash == std::string::npos) {
      dir = ".";
    } else if (slash == 0) {
      dir = "/";
    } else {
      dir.assign(path, 0, slash);
    }
    const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
  }

  std::unique_ptr<FileMapping> MapReadOnly(const std::string& path) override {
    std::unique_ptr<MappedFile> map = MappedFile::MapReadOnly(path, nullptr);
    if (map == nullptr) return nullptr;
    return std::make_unique<PosixMapping>(std::move(map));
  }
};

}  // namespace

std::unique_ptr<FileMapping> Env::MapReadOnly(const std::string& path) {
  std::unique_ptr<File> file = Open(path, /*create=*/false);
  if (file == nullptr) return nullptr;
  const uint64_t size = file->Size();
  if (size == std::numeric_limits<uint64_t>::max()) return nullptr;
  std::vector<uint8_t> bytes;
  if (!file->ReadAt(0, static_cast<size_t>(size), &bytes)) return nullptr;
  if (bytes.size() != size) return nullptr;  // Short read: truncated race.
  std::vector<uint64_t> words((bytes.size() + sizeof(uint64_t) - 1) /
                                  sizeof(uint64_t),
                              0);
  if (!bytes.empty()) {
    std::memcpy(words.data(), bytes.data(), bytes.size());
  }
  return std::make_unique<BufferMapping>(std::move(words), bytes.size());
}

Env* Env::Posix() {
  static PosixEnv env;
  return &env;
}

bool AtomicWriteFile(Env* env, const std::string& path,
                     const std::vector<uint8_t>& data, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (error != nullptr) error->clear();
  const std::string tmp = path + ".tmp";
  {
    std::unique_ptr<File> file = env->Open(tmp, /*create=*/true);
    if (file == nullptr) return fail("cannot create " + tmp);
    if (!file->Truncate(0) || !file->Append(data.data(), data.size())) {
      return fail("cannot write " + tmp);
    }
    if (!file->Sync()) return fail("cannot sync " + tmp);
  }
  if (!env->Rename(tmp, path)) {
    return fail("cannot rename " + tmp + " over " + path);
  }
  if (!env->SyncDir(path)) return fail("cannot sync directory of " + path);
  return true;
}

}  // namespace sgtree
