#pragma once

// Clang Thread Safety Analysis attributes plus the annotated lock
// primitives the rest of the library must use (the raw-concurrency lint
// rule forbids naked std::mutex / std::thread outside src/base/).
//
// The macros expand to Clang's capability attributes when the compiler
// understands them and to nothing otherwise, so GCC builds are unaffected.
// Configure with -DXICC_THREAD_SAFETY=ON under clang to turn every
// annotation violation into a hard error (-Werror=thread-safety-analysis);
// that build proves the locking discipline of CheckBatch, the shared memo
// and caches, xiccd, and the work-stealing pool at compile time.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define XICC_TSA_HAS_ATTRIBUTE_(x) __has_attribute(x)
#else
#define XICC_TSA_HAS_ATTRIBUTE_(x) 0
#endif

#if XICC_TSA_HAS_ATTRIBUTE_(capability)
#define XICC_TSA_ATTRIBUTE_(x) __attribute__((x))
#else
#define XICC_TSA_ATTRIBUTE_(x)
#endif

/// Marks a type as a capability (a lock). Argument: capability kind string.
#define XICC_CAPABILITY(x) XICC_TSA_ATTRIBUTE_(capability(x))

/// Marks an RAII type that acquires in its constructor and releases in its
/// destructor.
#define XICC_SCOPED_CAPABILITY XICC_TSA_ATTRIBUTE_(scoped_lockable)

/// Declares that a field may only be accessed while holding `x`.
#define XICC_GUARDED_BY(x) XICC_TSA_ATTRIBUTE_(guarded_by(x))

/// Declares that the pointee of a pointer field is guarded by `x`.
#define XICC_PT_GUARDED_BY(x) XICC_TSA_ATTRIBUTE_(pt_guarded_by(x))

/// The function may only be called while holding the listed capabilities.
#define XICC_REQUIRES(...) \
  XICC_TSA_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// The function acquires / releases the listed capabilities.
#define XICC_ACQUIRE(...) \
  XICC_TSA_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define XICC_RELEASE(...) \
  XICC_TSA_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `result`.
#define XICC_TRY_ACQUIRE(result, ...) \
  XICC_TSA_ATTRIBUTE_(try_acquire_capability(result, __VA_ARGS__))

/// The function must NOT be called while holding the listed capabilities
/// (deadlock prevention for self-locking entry points).
#define XICC_EXCLUDES(...) XICC_TSA_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Lock-ordering anchors on a Mutex member: this lock is only ever acquired
/// AFTER (resp. BEFORE) the listed locks. Clang enforces the order for
/// same-class members; xicc_analyze's lock-order engine reads the same
/// annotations (plus `// xicc-analyze: acquired-after(Class::member)`
/// comments for cross-class edges Clang cannot express) and folds them into
/// the global acquisition graph behind LOCK_ORDER.md.
#define XICC_ACQUIRED_AFTER(...) \
  XICC_TSA_ATTRIBUTE_(acquired_after(__VA_ARGS__))
#define XICC_ACQUIRED_BEFORE(...) \
  XICC_TSA_ATTRIBUTE_(acquired_before(__VA_ARGS__))

/// Returns a reference to the named capability (for accessors).
#define XICC_RETURN_CAPABILITY(x) XICC_TSA_ATTRIBUTE_(lock_returned(x))

/// Escape hatch; every use needs an xicc-lint allow() comment explaining why
/// the analysis cannot see the discipline.
#define XICC_NO_THREAD_SAFETY_ANALYSIS \
  XICC_TSA_ATTRIBUTE_(no_thread_safety_analysis)

namespace xicc {

/// A std::mutex annotated as a Clang capability. The lowercase
/// lock()/unlock() aliases keep the type BasicLockable so it composes with
/// std::condition_variable_any (see CondVar below).
class XICC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() XICC_ACQUIRE() { mu_.lock(); }
  void Unlock() XICC_RELEASE() { mu_.unlock(); }
  bool TryLock() XICC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void lock() XICC_ACQUIRE() { mu_.lock(); }
  void unlock() XICC_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII lock for a Mutex, visible to the analysis as a scoped capability.
class XICC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) XICC_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() XICC_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable paired with xicc::Mutex. Wait atomically releases and
/// reacquires, so to the analysis the caller simply holds `mu` throughout.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) XICC_REQUIRES(mu) { cv_.wait(*mu); }

  /// Bounded wait: returns false when `timeout_ms`, capped at one hour,
  /// elapsed without a notification, true on (possibly spurious) wakeup.
  /// Callers loop on their own deadline. This is the primitive every
  /// cancellable sleep in the library is built on — the raw-blocking lint
  /// rule bans unbounded waits and raw sleeps elsewhere.
  bool WaitFor(Mutex* mu, int64_t timeout_ms) XICC_REQUIRES(mu) {
    // A much longer wait overflows the clock inside the standard library
    // and returns at once, which turns a caller's deadline loop into a spin.
    constexpr int64_t kMaxWaitMs = 3'600'000;
    const int64_t slice = timeout_ms < kMaxWaitMs ? timeout_ms : kMaxWaitMs;
    return cv_.wait_for(*mu, std::chrono::milliseconds(slice)) ==
           std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace xicc
