// Clang thread-safety-analysis annotations (-Wthread-safety), expanding to
// nothing on other compilers. Concurrent code (the worker pool and its
// planner callers) must land with every shared field annotated, so the
// analysis proves lock discipline at compile time on the clang CI leg while
// gcc builds stay untouched.
//
// Convention (enforced by review, documented in DESIGN.md "Static analysis
// & layering"):
//   - every field shared across workers:      T field_ OPASS_GUARDED_BY(mu_);
//   - every method touching guarded fields:   void f() OPASS_REQUIRES(mu_);
//   - lock wrappers, not raw std::mutex:      opass::Mutex / opass::ScopedLock
//     (raw std::mutex carries no capability attribute, so the analysis
//     cannot see it).
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define OPASS_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define OPASS_THREAD_ANNOTATION__(x)  // no-op off clang
#endif

#define OPASS_CAPABILITY(x) OPASS_THREAD_ANNOTATION__(capability(x))
#define OPASS_SCOPED_CAPABILITY OPASS_THREAD_ANNOTATION__(scoped_lockable)
#define OPASS_GUARDED_BY(x) OPASS_THREAD_ANNOTATION__(guarded_by(x))
#define OPASS_PT_GUARDED_BY(x) OPASS_THREAD_ANNOTATION__(pt_guarded_by(x))
#define OPASS_ACQUIRED_BEFORE(...) OPASS_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define OPASS_ACQUIRED_AFTER(...) OPASS_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define OPASS_REQUIRES(...) OPASS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define OPASS_REQUIRES_SHARED(...) \
    OPASS_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define OPASS_ACQUIRE(...) OPASS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define OPASS_ACQUIRE_SHARED(...) \
    OPASS_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define OPASS_RELEASE(...) OPASS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define OPASS_RELEASE_SHARED(...) \
    OPASS_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define OPASS_TRY_ACQUIRE(...) OPASS_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define OPASS_EXCLUDES(...) OPASS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define OPASS_ASSERT_CAPABILITY(x) OPASS_THREAD_ANNOTATION__(assert_capability(x))
#define OPASS_RETURN_CAPABILITY(x) OPASS_THREAD_ANNOTATION__(lock_returned(x))
#define OPASS_NO_THREAD_SAFETY_ANALYSIS OPASS_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace opass {

/// std::mutex with the capability attribute the analysis needs. Same cost,
/// same semantics — annotations are compile-time only.
class OPASS_CAPABILITY("mutex") Mutex {
 public:
  void lock() OPASS_ACQUIRE() { mu_.lock(); }
  void unlock() OPASS_RELEASE() { mu_.unlock(); }
  bool try_lock() OPASS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over opass::Mutex, visible to the analysis as a scoped
/// capability (std::lock_guard on a Mutex would not be).
class OPASS_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(Mutex& mu) OPASS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~ScopedLock() OPASS_RELEASE() { mu_.unlock(); }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace opass
