// Annotated locking primitives.
//
// Thin wrappers over std::mutex / std::condition_variable carrying the Clang
// thread-safety attributes from common/thread_annotations.h, plus ThreadRole,
// a capability for data owned by one logical thread (an event loop) rather
// than by a lock. All concurrent code in src/ must use these instead of the
// naked std types — tools/lint_invariants.py enforces it — so every lock and
// every piece of guarded state is visible to `-Wthread-safety`.
//
// Because every lock goes through here, this is also the instrumentation
// choke point for two dynamic analyses:
//
//  * CLANDAG_SCT builds (cmake -DCLANDAG_SCT=ON) route every Lock/Unlock/
//    TryLock, CondVar wait/notify, and clandag::Thread create/join through
//    the deterministic schedule explorer in src/testing/sct/ — see
//    DESIGN.md §13. Outside an sct::Explore body the hooks no-op and the
//    real primitives run unchanged.
//
//  * CLANDAG_LOCK_ANALYZER (on in SCT and debug builds, off in release)
//    feeds every acquisition to the runtime lock-order analyzer
//    (testing/sct/lock_order.h): acquisition-graph cycles, rank-hierarchy
//    violations, and condvar waits while holding a second lock are each
//    reported once and counted.
//
// Lock ranks: a Mutex may be constructed with a name and a rank from the
// lock_rank namespace below. Ranks must STRICTLY INCREASE along any nested
// acquisition chain (outer rank < inner rank); the analyzer enforces this at
// runtime. Unranked mutexes (the default) are exempt from rank checks but
// still participate in cycle detection, keyed by name when given (all
// instances of a named class share one graph node) or per-instance otherwise.
//
// Thread-safety: all types here are safe to share between threads; that is
// their job. Mutex and CondVar are not copyable or movable, so they pin the
// identity the analysis tracks.

#ifndef CLANDAG_COMMON_MUTEX_H_
#define CLANDAG_COMMON_MUTEX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/thread_annotations.h"

#if defined(CLANDAG_SCT) || !defined(NDEBUG)
#define CLANDAG_LOCK_ANALYZER 1
#endif

#ifdef CLANDAG_SCT
#include "testing/sct/sct.h"
#endif
#ifdef CLANDAG_LOCK_ANALYZER
#include "testing/sct/lock_order.h"
#endif

namespace clandag {

// The documented lock hierarchy: every *named* long-lived mutex in src/ gets
// a rank here, and nested acquisitions must move strictly downward in this
// table (i.e. toward higher rank numbers; leaves last). The runtime analyzer
// enforces it in debug/SCT builds; DESIGN.md §13 carries the same table with
// the reasoning per edge.
namespace lock_rank {
inline constexpr int kUnranked = -1;
inline constexpr int kOracle = 10;      // fault/oracles.h safety+liveness
inline constexpr int kInjector = 20;    // fault/injector.h plan state
inline constexpr int kWorkPool = 40;    // common/work_pool.h job queue
inline constexpr int kBufferPool = 60;  // common/pool.h BufferPool free list
inline constexpr int kControlArena = 70;  // common/pool.h control-block arena
inline constexpr int kTcpCommand = 80;  // net/tcp command queue (leaf)
}  // namespace lock_rank

// Standard exclusive mutex. Prefer the scoped MutexLock over manual
// Lock()/Unlock() pairs. Long-lived / frequently nested mutexes should use
// the named constructor so the lock-order analyzer can aggregate instances
// and enforce the rank hierarchy above.
class CLANDAG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex([[maybe_unused]] const char* name,
                 [[maybe_unused]] int rank = lock_rank::kUnranked)
#ifdef CLANDAG_LOCK_ANALYZER
      : name_(name), rank_(rank)
#endif
  {
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
#ifdef CLANDAG_LOCK_ANALYZER
  ~Mutex() { sct::lockorder::OnDestroyed(this); }
#endif

  void Lock() CLANDAG_ACQUIRE() {
#ifdef CLANDAG_SCT
    sct::OnMutexAcquire(this, DebugName());
#endif
    mu_.lock();
#ifdef CLANDAG_LOCK_ANALYZER
    sct::lockorder::OnAcquired(this, DebugName(), Rank());
#endif
  }

  void Unlock() CLANDAG_RELEASE() {
#ifdef CLANDAG_LOCK_ANALYZER
    sct::lockorder::OnReleased(this);
#endif
    mu_.unlock();
#ifdef CLANDAG_SCT
    sct::OnMutexRelease(this, DebugName());
#endif
  }

  [[nodiscard]] bool TryLock() CLANDAG_TRY_ACQUIRE(true) {
#ifdef CLANDAG_SCT
    // Modeled outcome first: deterministic for the current schedule. If an
    // unscheduled (free-running) thread still holds the real lock, roll the
    // modeled acquisition back and report failure.
    if (!sct::OnMutexTryAcquire(this, DebugName())) {
      return false;
    }
    if (!mu_.try_lock()) {
      sct::OnMutexTryAcquireRollback(this);
      return false;
    }
#else
    if (!mu_.try_lock()) {
      return false;
    }
#endif
#ifdef CLANDAG_LOCK_ANALYZER
    sct::lockorder::OnAcquired(this, DebugName(), Rank());
#endif
    return true;
  }

  // Null for unnamed mutexes; a string literal otherwise.
  const char* DebugName() const {
#ifdef CLANDAG_LOCK_ANALYZER
    return name_;
#else
    return nullptr;
#endif
  }

  int Rank() const {
#ifdef CLANDAG_LOCK_ANALYZER
    return rank_;
#else
    return lock_rank::kUnranked;
#endif
  }

 private:
  friend class CondVar;
  std::mutex mu_;
#ifdef CLANDAG_LOCK_ANALYZER
  const char* name_ = nullptr;
  int rank_ = lock_rank::kUnranked;
#endif
};

// RAII lock holder; the analysis treats the constructor as acquiring the
// mutex and the destructor as releasing it.
class CLANDAG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CLANDAG_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() CLANDAG_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable usable with Mutex. Waits require the mutex to be held;
// there are deliberately no predicate overloads — a lambda predicate is
// opaque to the thread-safety analysis, so loop explicitly:
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.Wait(mu_);
//
// (clandag-tidy's cv-wait-loop check enforces the loop shape statically.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() {
#ifdef CLANDAG_SCT
    sct::OnCondVarNotify(this, /*notify_all=*/false);
#endif
    cv_.notify_one();
  }

  void NotifyAll() {
#ifdef CLANDAG_SCT
    sct::OnCondVarNotify(this, /*notify_all=*/true);
#endif
    cv_.notify_all();
  }

  void Wait(Mutex& mu) CLANDAG_REQUIRES(mu) {
#ifdef CLANDAG_LOCK_ANALYZER
    sct::lockorder::OnCondWait(&mu);
#endif
#ifdef CLANDAG_SCT
    if (sct::InSchedule()) {
      ScheduledWait(mu, /*timed=*/false);
      return;
    }
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // Still locked: ownership stays with the caller.
  }

  // Returns false on timeout. Under SCT the scheduler times the wait out
  // only when no other scheduled thread can run ("time advances when nothing
  // else can happen"), so real-time-dependent timer loops must stay on
  // free-running threads.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      CLANDAG_REQUIRES(mu) {
#ifdef CLANDAG_LOCK_ANALYZER
    sct::lockorder::OnCondWait(&mu);
#endif
#ifdef CLANDAG_SCT
    if (sct::InSchedule()) {
      return ScheduledWait(mu, /*timed=*/true);
    }
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  // Returns false on timeout.
  bool WaitFor(Mutex& mu, std::chrono::microseconds timeout) CLANDAG_REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() + timeout);
  }

 private:
#ifdef CLANDAG_SCT
  // Modeled wait: drop the real lock (scheduled threads hold it only while
  // running), block in the scheduler, re-take the real lock when resumed.
  // The analyzer sees a release/re-acquire pair so held-stacks stay exact.
  bool ScheduledWait(Mutex& mu, bool timed) {
#ifdef CLANDAG_LOCK_ANALYZER
    sct::lockorder::OnReleased(&mu);
#endif
    mu.mu_.unlock();
    const bool notified = sct::OnCondVarWait(this, &mu, mu.DebugName(), timed);
    mu.mu_.lock();
#ifdef CLANDAG_LOCK_ANALYZER
    sct::lockorder::OnAcquired(&mu, mu.DebugName(), mu.Rank());
#endif
    return notified;
  }
#endif

  std::condition_variable cv_;
};

// Capability for single-threaded ownership: data that is not protected by a
// lock but by the rule "only thread X touches this". The owning thread calls
// Acquire() when it starts and Release() when it exits; code that runs on it
// indirectly (posted lambdas, timer callbacks) opens with AssertHeld(), which
// both checks the rule at runtime (CLANDAG_CHECK on the thread id) and tells
// the static analysis the capability is held from that point on. Members
// owned by the thread are declared CLANDAG_GUARDED_BY(role), member functions
// CLANDAG_REQUIRES(role) — turning a "runs on the loop thread" comment into a
// contract both the compiler and the process enforce.
class CLANDAG_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void Acquire() CLANDAG_ACQUIRE() {
    CLANDAG_CHECK(owner_.load(std::memory_order_relaxed) == std::thread::id{});
    owner_.store(std::this_thread::get_id(), std::memory_order_release);
  }

  void Release() CLANDAG_RELEASE() {
    CLANDAG_CHECK(owner_.load(std::memory_order_relaxed) == std::this_thread::get_id());
    owner_.store(std::thread::id{}, std::memory_order_release);
  }

  void AssertHeld() const CLANDAG_ASSERT_CAPABILITY() {
    CLANDAG_CHECK(owner_.load(std::memory_order_acquire) == std::this_thread::get_id());
  }

 private:
  std::atomic<std::thread::id> owner_{};
};

}  // namespace clandag

#endif  // CLANDAG_COMMON_MUTEX_H_
