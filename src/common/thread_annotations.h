// Thread-safety annotations and the audited locking primitives.
//
// The repo's headline concurrency guarantee — bit-identical readout
// decisions and metrics across READDUO_THREADS — is carried by a small
// set of locking disciplines (per-shard q_mu/sim_mu in src/service/, the
// pool mutex in common/parallel.cpp, the sampler cache). This header makes
// those disciplines *compiler-checked*: under Clang the RD_* macros
// expand to the thread-safety-analysis attributes, and
// run_static_analysis.sh builds the tree with
// `-Wthread-safety -Werror=thread-safety`, so touching a guarded field
// outside its lock is a build break, not a TSan roll of the dice. Under
// GCC (and any compiler without the capability analysis) every macro
// expands to nothing and rd::Mutex degrades to a plain std::mutex
// wrapper — zero overhead, identical behavior.
//
// Discipline (enforced by readduo_lint's `no-bare-mutex` rule): outside
// this header, code takes rd::Mutex / rd::MutexLock / rd::CondVar, never
// raw std::mutex / std::lock_guard / std::condition_variable — otherwise
// the annotations cannot see the lock and the analysis is blind.
// `std::atomic` stays allowed everywhere, but every load/store/RMW must
// name an explicit std::memory_order (`atomic-order` rule): seq-cst by
// default hides the author's intent and costs fences on weaker ISAs.
//
// The annotation map — which field is guarded by which capability — is
// documented in DESIGN.md §8.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define RD_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define RD_THREAD_ANNOTATION(x)  // no-op: GCC has no capability analysis
#endif

/// Declares a type to be a capability ("mutex") the analysis can track.
#define RD_CAPABILITY(x) RD_THREAD_ANNOTATION(capability(x))

/// RAII types that acquire a capability in their constructor and release
/// it in their destructor.
#define RD_SCOPED_CAPABILITY RD_THREAD_ANNOTATION(scoped_lockable)

/// Data members: reads and writes require holding `x`.
#define RD_GUARDED_BY(x) RD_THREAD_ANNOTATION(guarded_by(x))

/// Pointer members: dereferencing requires holding `x` (the pointer
/// itself may be read freely, e.g. a unique_ptr set once at startup).
#define RD_PT_GUARDED_BY(x) RD_THREAD_ANNOTATION(pt_guarded_by(x))

/// Functions: the caller must hold the capability (it is not acquired).
#define RD_REQUIRES(...) \
  RD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Functions that acquire / release a capability themselves.
#define RD_ACQUIRE(...) RD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RD_RELEASE(...) RD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RD_TRY_ACQUIRE(...) \
  RD_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Functions: the caller must NOT hold the capability (deadlock guard for
/// functions that acquire it internally).
#define RD_EXCLUDES(...) RD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Escape hatch for functions whose locking is deliberately outside the
/// analysis (must carry a comment saying why).
#define RD_NO_THREAD_SAFETY_ANALYSIS \
  RD_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace rd {

/// The repo's mutex: std::mutex carrying the `capability` attribute so
/// RD_GUARDED_BY(my_mu) participates in the analysis. Same size, same
/// cost — the attribute is compile-time only.
class RD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RD_ACQUIRE() { mu_.lock(); }
  void unlock() RD_RELEASE() { mu_.unlock(); }
  bool try_lock() RD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock for rd::Mutex (the std::scoped_lock of this codebase). A
/// scoped capability: the analysis knows the capability is held between
/// construction and destruction.
class RD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RD_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RD_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over rd::Mutex. Built on condition_variable_any so
/// waits keep the capability type the analysis understands; wait() is
/// annotated RD_REQUIRES(mu), so waiting without the lock is a compile
/// error under Clang. Callers open-code their predicate loops
/// (`while (!pred) cv.wait(mu);`) — a predicate lambda would be analyzed
/// as an unannotated function and falsely flagged for reading guarded
/// state.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  /// Atomically release `mu`, sleep, and reacquire before returning.
  void wait(Mutex& mu) RD_REQUIRES(mu) { cv_.wait(mu); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace rd
