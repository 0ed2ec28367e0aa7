// Shared helpers for the SCT ("systematic concurrency testing") suite.
//
// Every test in this suite is labeled `sct` in CMake and is meaningful only
// in a -DCLANDAG_SCT=ON build; SCT_REQUIRE_BUILD() skips otherwise so the
// binary stays green in ordinary configurations.

#ifndef CLANDAG_TESTS_SCT_TEST_UTIL_H_
#define CLANDAG_TESTS_SCT_TEST_UTIL_H_

#include <cstdlib>
#include <deque>
#include <functional>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread.h"
#include "testing/sct/explore.h"

#ifdef CLANDAG_SCT
#define SCT_REQUIRE_BUILD() \
  do {                      \
  } while (0)
#else
#define SCT_REQUIRE_BUILD() \
  GTEST_SKIP() << "requires a -DCLANDAG_SCT=ON build (see DESIGN.md §13)"
#endif

namespace clandag::sct_test {

// Base seed for randomized strategies. CI's randomized pass sets
// CLANDAG_SCT_BASE_SEED (e.g. to the run id) so every run explores fresh
// schedules; a failure prints the exact failing seed for local replay.
inline uint64_t BaseSeed() {
  const char* v = std::getenv("CLANDAG_SCT_BASE_SEED");
  if (v != nullptr && *v != '\0') {
    return std::strtoull(v, nullptr, 10);
  }
  return 1;
}

// Schedule-count multiplier for the weekly deep sweep (CLANDAG_SCT_DEEP=1).
inline uint64_t DeepMultiplier() {
  const char* v = std::getenv("CLANDAG_SCT_DEEP");
  return (v != nullptr && *v != '\0' && *v != '0') ? 10 : 1;
}

// Minimal mailbox event loop running on a scheduled thread — the SCT stand-in
// for the TCP loop threads (which stay free-running under SCT because
// they wait on real time). Post() enqueues a closure; Stop() drains the
// queue and joins. Used to drive thread-confined components (ingress
// Batcher, log) from a scheduled thread while other scheduled threads race.
class SctLoop {
 public:
  SctLoop() : thread_("sct-loop", [this] { Run(); }) {}
  ~SctLoop() { CLANDAG_CHECK(stopped_); }

  void Post(std::function<void()> fn) {
    {
      MutexLock lock(mu_);
      CLANDAG_CHECK(!stopping_);
      queue_.push_back(std::move(fn));
    }
    cv_.NotifyOne();
  }

  // Runs every already-posted closure, then joins the loop thread.
  void Stop() {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
    stopped_ = true;
  }

 private:
  void Run() {
    while (true) {
      std::function<void()> fn;
      {
        MutexLock lock(mu_);
        while (queue_.empty() && !stopping_) {
          cv_.Wait(mu_);
        }
        if (queue_.empty()) {
          return;  // stopping_ && drained.
        }
        fn = std::move(queue_.front());
        queue_.pop_front();
      }
      fn();
    }
  }

  Mutex mu_{"sct_test.loop"};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ CLANDAG_GUARDED_BY(mu_);
  bool stopping_ CLANDAG_GUARDED_BY(mu_) = false;
  bool stopped_ = false;
  Thread thread_;
};

}  // namespace clandag::sct_test

#endif  // CLANDAG_TESTS_SCT_TEST_UTIL_H_
