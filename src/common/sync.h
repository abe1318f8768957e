#ifndef SGTREE_COMMON_SYNC_H_
#define SGTREE_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>

/// Lock discipline, checked at compile time.
///
/// Every mutex in this codebase is a sgtree::Mutex, and every field or
/// method with a locking contract carries one of the SGTREE_* annotations
/// below. Under clang with -Wthread-safety (the SGTREE_THREAD_SAFETY CMake
/// option, enforced by the thread-safety CI job) the compiler then proves,
/// for EVERY path rather than the schedules a TSAN run happened to execute,
/// that:
///
///  - a field declared SGTREE_GUARDED_BY(mu) is only touched with mu held;
///  - a method declared SGTREE_REQUIRES(mu) is only called with mu held;
///  - a method declared SGTREE_EXCLUDES(mu) never re-enters mu (the
///    self-deadlock check — this is what caught DurableTree::AdoptBulkLoaded
///    calling the public Checkpoint() while already holding mu_);
///  - locks acquired are released on every exit path.
///
/// This is the annotation system of Hutchins, Ballman & Sutherland,
/// "C/C++ Thread Safety Analysis" (SPIN 2014) — the machinery behind
/// abseil's Mutex. The macros expand to clang attributes when the compiler
/// supports them and to nothing otherwise, so gcc builds are unaffected.
///
/// Conventions (see DESIGN.md "Lock discipline"):
///  - raw std::mutex / std::lock_guard / std::condition_variable are banned
///    outside this header (tools/sglint.py enforces it); use Mutex /
///    MutexLock / CondVar;
///  - public entry points that take a lock are annotated
///    SGTREE_EXCLUDES(mu_); private helpers that expect it held are
///    annotated SGTREE_REQUIRES(mu_) and conventionally named *Locked();
///  - lock-free protocols (the executor's epoch rendezvous, metric shard
///    counters, SharedPruneBound) are outside the analysis' model; they
///    stay on std::atomic with explicit memory orders (sglint checks the
///    explicitness) and are covered by the TSAN job instead.

#if defined(__clang__) && !defined(SGTREE_NO_THREAD_SAFETY_ANNOTATIONS)
#define SGTREE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SGTREE_THREAD_ANNOTATION(x)  // gcc/msvc: annotations compile away.
#endif

/// Declares a class to be a capability (a lock) the analysis tracks.
#define SGTREE_CAPABILITY(x) SGTREE_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define SGTREE_SCOPED_CAPABILITY SGTREE_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written with the named capability held.
#define SGTREE_GUARDED_BY(x) SGTREE_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose POINTEE may only be dereferenced with the capability
/// held (the pointer itself is unguarded — e.g. set once at construction).
#define SGTREE_PT_GUARDED_BY(x) SGTREE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability to be held on entry (and does not
/// release it). The caller must hold the lock.
#define SGTREE_REQUIRES(...) \
  SGTREE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SGTREE_REQUIRES_SHARED(...) \
  SGTREE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define SGTREE_ACQUIRE(...) \
  SGTREE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (which must be held on entry).
#define SGTREE_RELEASE(...) \
  SGTREE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts to acquire; the first argument is the return value
/// meaning success (the analysis then tracks the lock only on that branch).
#define SGTREE_TRY_ACQUIRE(...) \
  SGTREE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock guard for
/// public entry points of a class that takes its own lock).
#define SGTREE_EXCLUDES(...) SGTREE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability is held here without acquiring it —
/// the escape hatch where holding is established by a protocol the
/// analysis cannot see. Use sparingly and leave a comment saying why.
#define SGTREE_ASSERT_CAPABILITY(x) \
  SGTREE_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define SGTREE_RETURN_CAPABILITY(x) SGTREE_THREAD_ANNOTATION(lock_returned(x))

/// Documents a required acquisition order between two capabilities.
#define SGTREE_ACQUIRED_BEFORE(...) \
  SGTREE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SGTREE_ACQUIRED_AFTER(...) \
  SGTREE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Turns the analysis off for one function. Last resort; prefer
/// SGTREE_ASSERT_CAPABILITY, which keeps the rest of the body checked.
#define SGTREE_NO_THREAD_SAFETY_ANALYSIS \
  SGTREE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sgtree {

class CondVar;

/// Annotated exclusive mutex: std::mutex plus the capability declaration
/// that lets the analysis track it. Prefer MutexLock for scoped holds;
/// Lock/Unlock exist for the hand-over-hand and try-lock shapes RAII cannot
/// express.
class SGTREE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SGTREE_ACQUIRE() { mu_.lock(); }
  void Unlock() SGTREE_RELEASE() { mu_.unlock(); }

  /// Returns true when the lock was acquired.
  bool TryLock() SGTREE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Analysis-only assertion that this thread holds the lock: std::mutex
  /// cannot check ownership at runtime, so this compiles to nothing and
  /// exists to tell the analysis about holds it cannot derive (e.g. a lock
  /// taken by C code, or a single-threaded phase). Const so it can be
  /// stated from const methods of the owning class.
  void AssertHeld() const SGTREE_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock of a Mutex (the std::lock_guard replacement). The scoped-
/// capability annotation makes the analysis release the lock exactly at end
/// of scope, so an early return inside the block is still checked.
class SGTREE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SGTREE_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() SGTREE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with Mutex. Wait() is annotated
/// SGTREE_REQUIRES(mu): from the caller's point of view the lock is held
/// across the call (it is released and re-acquired inside, invisible to the
/// analysis — the standard condition-variable contract). Always wait in a
/// predicate loop:
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(&mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu` and blocks until notified, then re-acquires
  /// `*mu` before returning. Spurious wakeups happen; loop on the predicate.
  void Wait(Mutex* mu) SGTREE_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // Ownership stays with the caller's MutexLock.
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sgtree

#endif  // SGTREE_COMMON_SYNC_H_
