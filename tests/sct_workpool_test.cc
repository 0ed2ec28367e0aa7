// SCT tests for OrderedVerifyPool: the in-submission-order delivery
// guarantee must hold under ADVERSARIAL schedules (workers finishing out of
// order, the releaser token bouncing between threads, the producer blocked
// on backpressure, the destructor racing a half-drained queue) — not just
// under whatever interleavings the OS happens to produce.

#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "common/work_pool.h"
#include "sct_test_util.h"
#include "testing/sct/explore.h"

namespace clandag {
namespace {

using sct::Strategy;
using sct_test::BaseSeed;
using sct_test::DeepMultiplier;

// Immediate executor: delivery happens on whichever thread holds the
// releaser token, preserving the call order (the pool calls deliver_ with
// its lock held, one releaser at a time).
OrderedVerifyPool::Executor InlineExecutor() {
  return [](std::function<void()> fn) { fn(); };
}

TEST(SctWorkPool, InOrderDeliveryUnderAdversarialCompletion) {
  SCT_REQUIRE_BUILD();
  constexpr int kJobs = 5;
  for (Strategy strategy : {Strategy::kRandomWalk, Strategy::kPct}) {
    auto result = sct::Explore(
        {.strategy = strategy,
         .seed = BaseSeed(),
         .schedules = 60 * DeepMultiplier()},
        [] {
          Mutex done_mu("sct_test.workpool.done");
          CondVar done_cv;
          std::vector<int> order;
          bool all_done = false;
          {
            OrderedVerifyPool pool({.num_workers = 2, .max_batch = 2},
                                   InlineExecutor());
            for (int i = 0; i < kJobs; ++i) {
              pool.Submit([i] { return (i % 2) == 0; },
                          [i, &done_mu, &done_cv, &order, &all_done](bool ok) {
                            SCT_ASSERT(ok == ((i % 2) == 0));
                            MutexLock lock(done_mu);
                            order.push_back(i);
                            if (order.size() == static_cast<size_t>(kJobs)) {
                              all_done = true;
                              done_cv.NotifyOne();
                            }
                          });
            }
            {
              MutexLock lock(done_mu);
              while (!all_done) {
                done_cv.Wait(done_mu);
              }
            }
          }
          // Every job delivered, in exact submission order, regardless of
          // which worker finished which verify first.
          SCT_ASSERT(order.size() == static_cast<size_t>(kJobs));
          for (int i = 0; i < kJobs; ++i) {
            SCT_ASSERT(order[static_cast<size_t>(i)] == i);
          }
        });
    EXPECT_FALSE(result.found)
        << sct::StrategyName(strategy) << ": " << result.first_failure_message
        << "\n" << result.first_failure_trace;
  }
}

TEST(SctWorkPool, BackpressureEdgeAndStopWhileDraining) {
  SCT_REQUIRE_BUILD();
  auto result = sct::Explore(
      {.strategy = Strategy::kRandomWalk,
       .seed = BaseSeed(),
       .schedules = 80 * DeepMultiplier()},
      [] {
        Mutex done_mu("sct_test.workpool.done");
        std::vector<int> order;
        {
          // max_pending = 2 forces Submit() onto the space_cv_ wait path
          // (the full edge) in most schedules; destroying the pool with
          // jobs still queued exercises stop-while-draining.
          OrderedVerifyPool pool(
              {.num_workers = 2, .max_batch = 1, .max_pending = 2},
              InlineExecutor());
          for (int i = 0; i < 5; ++i) {
            pool.Submit([] { return true; }, [i, &done_mu, &order](bool ok) {
              SCT_ASSERT(ok);
              MutexLock lock(done_mu);
              order.push_back(i);
            });
          }
          // Destructor races the workers: stopping_ wakes everything; jobs
          // not yet handed to the executor are discarded.
        }
        // Delivered callbacks must form an exact prefix of submission order:
        // in-order release means nothing can be skipped then delivered.
        for (size_t i = 0; i < order.size(); ++i) {
          SCT_ASSERT(order[i] == static_cast<int>(i));
        }
      });
  EXPECT_FALSE(result.found)
      << result.first_failure_message << "\n" << result.first_failure_trace;
}

TEST(SctWorkPool, StopWithEmptyQueueIsClean) {
  SCT_REQUIRE_BUILD();
  auto result = sct::Explore(
      {.strategy = Strategy::kPct,
       .seed = BaseSeed(),
       .schedules = 40 * DeepMultiplier()},
      [] {
        // The empty edge: workers may still be parked in work_cv_.Wait (or
        // not yet started) when the destructor runs.
        OrderedVerifyPool pool({.num_workers = 2}, InlineExecutor());
      });
  EXPECT_FALSE(result.found)
      << result.first_failure_message << "\n" << result.first_failure_trace;
}

}  // namespace
}  // namespace clandag
