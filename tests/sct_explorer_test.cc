// Explorer harness tests: determinism (same seed ⇒ identical trace), DFS
// exhaustiveness, and the two seeded falsifiability fixtures required by
// ISSUE 8 — the PR 2 Send-vs-Stop race shape and a missed-notify bug —
// each of which the explorer must find within 1000 schedules.

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "common/thread.h"
#include "sct_test_util.h"
#include "testing/sct/explore.h"
#include "testing/sct/scheduler.h"

namespace clandag {
namespace {

using sct::ExploreOptions;
using sct::Strategy;
using sct_test::BaseSeed;

#ifdef CLANDAG_SCT
// One contended-mutex schedule under a given seed; returns its full trace.
std::string TraceForSeed(uint64_t seed) {
  sct::ScheduleOptions so;
  so.strategy = Strategy::kRandomWalk;
  so.seed = seed;
  sct::Scheduler sched(so, nullptr);
  sched.RegisterMain();
  {
    Mutex mu("trace.mu");
    int x = 0;
    Thread a("a", [&] {
      MutexLock lock(mu);
      ++x;
    });
    Thread b("b", [&] {
      MutexLock lock(mu);
      ++x;
    });
    a.join();
    b.join();
    {
      MutexLock lock(mu);
      SCT_ASSERT(x == 2);
    }
  }
  sched.FinishMain();
  EXPECT_FALSE(sched.failed()) << sched.failure_message();
  return sched.FormatTrace();
}
#endif  // CLANDAG_SCT

TEST(SctExplorer, SameSeedYieldsIdenticalTrace) {
  SCT_REQUIRE_BUILD();
#ifdef CLANDAG_SCT
  for (uint64_t seed : {7u, 42u, 1337u}) {
    EXPECT_EQ(TraceForSeed(seed), TraceForSeed(seed)) << "seed " << seed;
  }
  // Different seeds must actually explore different schedules (if every seed
  // produced the same trace the strategy would be a constant, not a search).
  const std::string base = TraceForSeed(7);
  bool any_different = false;
  for (uint64_t seed = 8; seed < 24 && !any_different; ++seed) {
    any_different = TraceForSeed(seed) != base;
  }
  EXPECT_TRUE(any_different);
#endif
}

TEST(SctExplorer, DfsExhaustsTinyCaseAndSeesBothOrders) {
  SCT_REQUIRE_BUILD();
  std::set<int> first_finishers;
  auto result = sct::Explore(
      {.strategy = Strategy::kDfs, .schedules = 5000},
      [&] {
        Mutex mu("dfs.mu");
        int finished = 0;
        int first = 0;
        Thread a("a", [&] {
          MutexLock lock(mu);
          if (++finished == 1) {
            first = 1;
          }
        });
        {
          MutexLock lock(mu);
          if (++finished == 1) {
            first = 2;
          }
        }
        a.join();
        first_finishers.insert(first);
      });
  EXPECT_TRUE(result.dfs_exhausted)
      << "two-thread/one-mutex space not exhausted in " << result.schedules_run
      << " schedules";
  EXPECT_GT(result.schedules_run, 1u);
  EXPECT_FALSE(result.found) << result.first_failure_trace;
  // Exhaustive enumeration must have covered both completion orders.
  EXPECT_TRUE(first_finishers.count(1) == 1 && first_finishers.count(2) == 1);
}

// -- Falsifiability fixture 1: the PR 2 Send-vs-Stop race shape -------------
//
// Stop() clears `running_` under the lock but closes the descriptor OUTSIDE
// it, so a Send() that saw running_ == true can reach a closed fd — exactly
// the TCP transport bug PR 2's annotations caught statically. Only
// meaningful under SCT: the scheduler serializes all accesses, so the
// unsynchronized fd flag is not a real data race here.
class RacyPort {
 public:
  void Stop() {
    {
      MutexLock lock(mu_);
      running_ = false;
    }
    // BUG (intentional): fd teardown outside the lock that Send() checks
    // under; the fix that shipped moves descriptor lifetime behind the
    // running_ flag's lock (or defers the close to after the loop join).
    fd_open_ = false;
  }

  void Send() {
    bool go;
    {
      MutexLock lock(mu_);
      go = running_;
    }
    sct::SchedulePoint();  // Check-to-use window.
    if (go) {
      SCT_ASSERT(fd_open_);  // "write() on a closed fd"
    }
  }

 private:
  Mutex mu_{"fixture.racyport"};
  bool running_ CLANDAG_GUARDED_BY(mu_) = true;
  bool fd_open_ = true;
};

TEST(SctFalsifiability, FindsSendVsStopRaceWithinBudget) {
  SCT_REQUIRE_BUILD();
  for (Strategy strategy :
       {Strategy::kRandomWalk, Strategy::kPct, Strategy::kDfs}) {
    auto result = sct::Explore(
        {.strategy = strategy, .seed = BaseSeed(), .schedules = 1000,
         .quiet = true},
        [] {
          RacyPort port;
          Thread sender("sender", [&] { port.Send(); });
          port.Stop();
          sender.join();
        });
    EXPECT_TRUE(result.found)
        << sct::StrategyName(strategy)
        << " did not find the Send-vs-Stop race in 1000 schedules (base seed "
        << BaseSeed() << ")";
    EXPECT_LT(result.first_failure_schedule, 1000u);
    EXPECT_FALSE(result.first_failure_trace.empty());
  }
}

// -- Falsifiability fixture 2: seeded missed-notify ------------------------
//
// The consumer checks the flag under the lock, RELEASES it, then re-locks
// and waits unconditionally. A notify landing in the release window is lost
// and the consumer blocks forever — the scheduler's all-threads-blocked
// detector reports it as a deadlock and aborts with the schedule trace.
void RunMissedNotifyExploration() {
  sct::Explore({.strategy = Strategy::kDfs, .schedules = 1000, .quiet = true},
               [] {
                 Mutex mu("fixture.missednotify");
                 CondVar cv;
                 bool ready = false;
                 Thread producer("producer", [&] {
                   MutexLock lock(mu);
                   ready = true;
                   cv.NotifyOne();
                 });
                 bool need_wait;
                 {
                   MutexLock lock(mu);
                   need_wait = !ready;
                 }
                 if (need_wait) {
                   // BUG (intentional): no re-check loop after re-acquiring;
                   // the while(!ready) shape — which clandag-cv-wait-loop
                   // enforces statically — would be immune.
                   MutexLock lock(mu);
                   cv.Wait(mu);  // lint:allow(cv-wait-loop-fixture)
                 }
                 producer.join();
               });
}

TEST(SctFalsifiabilityDeathTest, FindsMissedNotifyDeadlockWithinBudget) {
  SCT_REQUIRE_BUILD();
  EXPECT_DEATH(RunMissedNotifyExploration(), "deadlock");
}

TEST(SctFalsifiability, FixedMissedNotifyShapeIsClean) {
  SCT_REQUIRE_BUILD();
  auto result = sct::Explore(
      {.strategy = Strategy::kDfs, .schedules = 1000}, [] {
        Mutex mu("fixture.notify.fixed");
        CondVar cv;
        bool ready = false;
        Thread producer("producer", [&] {
          MutexLock lock(mu);
          ready = true;
          cv.NotifyOne();
        });
        {
          MutexLock lock(mu);
          while (!ready) {
            cv.Wait(mu);
          }
        }
        producer.join();
      });
  EXPECT_FALSE(result.found) << result.first_failure_trace;
  EXPECT_TRUE(result.dfs_exhausted);
}

}  // namespace
}  // namespace clandag
