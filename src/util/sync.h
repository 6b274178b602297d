// Annotated synchronization primitives.
//
// Thin wrappers over the std locking primitives that carry Clang's
// thread-safety capability attributes, so locking discipline is checked
// at compile time (-Wthread-safety) instead of only dynamically by a
// TSan run that happens to hit the right interleaving. Under GCC (or
// any compiler without the attributes) the annotations expand to
// nothing and the wrappers compile down to the std types they hold.
//
// Conventions (see docs/STATIC_ANALYSIS.md for the full guide):
//  - Every mutex-protected field is declared `GREPAIR_GUARDED_BY(mu_)`.
//  - Private helpers that assume the lock is already held take
//    `GREPAIR_REQUIRES(mu_)` (the `...Locked()` naming convention).
//  - Public entry points that acquire a lock internally are annotated
//    `GREPAIR_LOCKS_EXCLUDED(mu_)` so re-entrant acquisition is a
//    compile error at the call site, not a deadlock in production.
//  - What cannot be expressed (per-element mutex arrays, fields handed
//    off between threads by join/detach) is documented with a comment
//    at the declaration instead of left silently unannotated.

#ifndef GREPAIR_UTIL_SYNC_H_
#define GREPAIR_UTIL_SYNC_H_

#include <mutex>
#include <shared_mutex>

// Attribute layer: real capability attributes under Clang, no-ops
// elsewhere. GREPAIR_THREAD_ANNOTATION is the single gate so a future
// compiler with the analysis only needs one #elif.
#if defined(__clang__) && (!defined(SWIG))
#define GREPAIR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GREPAIR_THREAD_ANNOTATION(x)  // no-op
#endif

#define GREPAIR_CAPABILITY(x) GREPAIR_THREAD_ANNOTATION(capability(x))
#define GREPAIR_SCOPED_CAPABILITY GREPAIR_THREAD_ANNOTATION(scoped_lockable)
#define GREPAIR_GUARDED_BY(x) GREPAIR_THREAD_ANNOTATION(guarded_by(x))
#define GREPAIR_PT_GUARDED_BY(x) GREPAIR_THREAD_ANNOTATION(pt_guarded_by(x))
#define GREPAIR_ACQUIRE(...) \
  GREPAIR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GREPAIR_ACQUIRE_SHARED(...) \
  GREPAIR_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define GREPAIR_RELEASE(...) \
  GREPAIR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GREPAIR_RELEASE_SHARED(...) \
  GREPAIR_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define GREPAIR_RELEASE_GENERIC(...) \
  GREPAIR_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define GREPAIR_REQUIRES(...) \
  GREPAIR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GREPAIR_REQUIRES_SHARED(...) \
  GREPAIR_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define GREPAIR_LOCKS_EXCLUDED(...) \
  GREPAIR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define GREPAIR_RETURN_CAPABILITY(x) \
  GREPAIR_THREAD_ANNOTATION(lock_returned(x))
#define GREPAIR_NO_THREAD_SAFETY_ANALYSIS \
  GREPAIR_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace grepair {

class MutexLock;
class ReaderMutexLock;
class WriterMutexLock;

/// \brief A standard mutex carrying the `capability` attribute.
///
/// Prefer the scoped MutexLock over calling Lock/Unlock directly; the
/// raw methods are fully annotated so the analysis tracks them too.
class GREPAIR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GREPAIR_ACQUIRE() { mu_.lock(); }
  void Unlock() GREPAIR_RELEASE() { mu_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// \brief A reader/writer mutex carrying the `capability` attribute.
class GREPAIR_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() GREPAIR_ACQUIRE() { mu_.lock(); }
  void Unlock() GREPAIR_RELEASE() { mu_.unlock(); }
  void LockShared() GREPAIR_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() GREPAIR_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  friend class ReaderMutexLock;
  friend class WriterMutexLock;
  std::shared_mutex mu_;
};

/// \brief Scoped exclusive lock on a Mutex (the workhorse guard).
class GREPAIR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GREPAIR_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() GREPAIR_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
};

/// \brief Scoped shared (reader) lock on a SharedMutex.
class GREPAIR_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) GREPAIR_ACQUIRE_SHARED(mu)
      : lock_(mu.mu_) {}
  ~ReaderMutexLock() GREPAIR_RELEASE() = default;

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  std::shared_lock<std::shared_mutex> lock_;
};

/// \brief Scoped exclusive (writer) lock on a SharedMutex.
class GREPAIR_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) GREPAIR_ACQUIRE(mu)
      : lock_(mu.mu_) {}
  ~WriterMutexLock() GREPAIR_RELEASE() = default;

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  std::unique_lock<std::shared_mutex> lock_;
};

}  // namespace grepair

#endif  // GREPAIR_UTIL_SYNC_H_
