// Clang thread-safety annotations plus the annotated lock primitives the
// rest of the tree builds on (DESIGN.md §8).
//
// The concurrency contracts introduced with the parallel verification
// server (DESIGN.md §6) used to live only in comments: "guarded by the
// shard lock", "workers read published snapshots lock-free", "sat_count's
// memo is internally synchronized". Nothing stopped a later change from
// violating them silently. This header turns those contracts into
// attributes the compiler checks: under clang with
//
//   -Wthread-safety -Wthread-safety-beta -Werror=thread-safety-analysis
//
// (the `clang-strict` CMake preset), reading a GUARDED_BY member without
// its capability held, or calling a REQUIRES function unlocked, is a
// build error. Under every other compiler the macros expand to nothing
// and the wrappers compile down to the std primitives they hold — GCC
// builds are unchanged.
//
// Why wrapper types at all: the analysis needs capability attributes on
// the mutex CLASS, and libstdc++'s std::mutex carries none. veridp code
// therefore uses veridp::Mutex / veridp::SharedMutex and the scoped
// guards below instead of bare std types. The domain lint
// (tools/veridp_lint.py, rule `raw-lock`) enforces the other half of the
// bargain: outside this file, .lock()/.unlock() may only appear through
// the RAII guards, so there is no un-annotated side door.
//
// Macro names follow the clang documentation's mutex.h reference so they
// read like the upstream examples (CAPABILITY, GUARDED_BY, REQUIRES,
// ACQUIRE/RELEASE, EXCLUDES, ...).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__)
#define VERIDP_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define VERIDP_THREAD_ANNOTATION__(x)  // no-op off clang
#endif

#define CAPABILITY(x) VERIDP_THREAD_ANNOTATION__(capability(x))
#define SCOPED_CAPABILITY VERIDP_THREAD_ANNOTATION__(scoped_lockable)
#define GUARDED_BY(x) VERIDP_THREAD_ANNOTATION__(guarded_by(x))
#define PT_GUARDED_BY(x) VERIDP_THREAD_ANNOTATION__(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) \
  VERIDP_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  VERIDP_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  VERIDP_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  VERIDP_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) \
  VERIDP_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  VERIDP_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  VERIDP_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  VERIDP_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  VERIDP_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  VERIDP_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  VERIDP_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) VERIDP_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) \
  VERIDP_THREAD_ANNOTATION__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  VERIDP_THREAD_ANNOTATION__(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) VERIDP_THREAD_ANNOTATION__(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  VERIDP_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace veridp {

/// Annotated exclusive mutex. The raw lock()/unlock() members exist only
/// so the RAII guards and CondVar below can be written; production code
/// takes a MutexLock (the `raw-lock` lint rule enforces this).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

  /// The underlying std primitive, for CondVar::wait only.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Annotated shared (reader/writer) mutex, e.g. the BddManager
/// sat_count memo: concurrent warm readers, exclusive cold fills.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive lock over Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RELEASE_GENERIC() { mu_.unlock(); }

  /// For CondVar::wait, which must name the mutex it releases.
  Mutex& mutex() { return mu_; }

 private:
  Mutex& mu_;
};

/// Scoped shared (reader) lock over SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;
  ~ReaderLock() RELEASE_GENERIC() { mu_.unlock_shared(); }

 private:
  SharedMutex& mu_;
};

/// Scoped exclusive (writer) lock over SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;
  ~WriterLock() RELEASE_GENERIC() { mu_.unlock(); }

 private:
  SharedMutex& mu_;
};

/// Condition variable paired with veridp::Mutex. wait() is excluded from
/// the analysis: it atomically releases and reacquires the capability,
/// which the static model cannot express — callers keep their MutexLock
/// and re-test their predicate in a loop, so every guarded access around
/// the wait still happens under the capability.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lk) NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> ul(lk.mutex().native(), std::adopt_lock);
    cv_.wait(ul);
    ul.release();  // the MutexLock still owns the capability
  }

  /// Timed wait; returns false on timeout. Same capability story as
  /// wait(): the caller's MutexLock is held again either way, and the
  /// caller re-tests its predicate in a loop. The parallel server's
  /// workers use this to bound how long an idle worker sleeps before
  /// rescanning sibling lanes for stealable work.
  template <typename Rep, typename Period>
  bool wait_for(MutexLock& lk, std::chrono::duration<Rep, Period> d)
      NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> ul(lk.mutex().native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_for(ul, d);
    ul.release();  // the MutexLock still owns the capability
    return st == std::cv_status::no_timeout;
  }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace veridp
