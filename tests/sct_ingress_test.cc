// SCT tests for the ingress Batcher close/flush path and the log schedule
// point. The Batcher is thread-confined by contract, so it is driven from a
// scheduled SctLoop mailbox thread while a scheduled producer posts Adds and
// the main thread posts CloseExpired/PopClosed — the explorer then decides
// how producer posts interleave with flush posts, and the exactly-once
// property (every admitted tx appears in exactly one popped batch) must
// survive every interleaving.

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/mutex.h"
#include "common/thread.h"
#include "ingress/batcher.h"
#include "sct_test_util.h"
#include "testing/sct/explore.h"

namespace clandag {
namespace {

using sct::Strategy;
using sct_test::BaseSeed;
using sct_test::DeepMultiplier;
using sct_test::SctLoop;

PendingTx MakeTx(uint64_t id, size_t bytes) {
  PendingTx tx;
  tx.tx.id = id;
  tx.tx.data.assign(bytes, static_cast<uint8_t>(id));
  tx.charged_bytes = bytes;
  return tx;
}

TEST(SctIngress, BatcherCloseFlushExactlyOnce) {
  SCT_REQUIRE_BUILD();
  for (Strategy strategy : {Strategy::kRandomWalk, Strategy::kPct}) {
    auto result = sct::Explore(
        {.strategy = strategy,
         .seed = BaseSeed(),
         .schedules = 50 * DeepMultiplier()},
        [] {
          // Virtual clock: advanced only by posted closures, so deadline
          // expiry is schedule-driven, not wall-clock-driven.
          BatcherOptions options;
          options.max_batch_bytes = 64;
          options.max_batch_wait = 10;
          options.max_closed_batches = 2;
          Batcher batcher(options);
          TimeMicros now = 0;
          std::vector<uint64_t> popped_ids;
          uint64_t accepted = 0;
          uint64_t refused = 0;
          SctLoop loop;
          // Producer posts Adds (32 bytes each: two per size-closed batch).
          Thread producer("producer", [&] {
            for (uint64_t id = 1; id <= 6; ++id) {
              loop.Post([&, id] {
                if (batcher.Add(MakeTx(id, 32), now)) {
                  ++accepted;
                } else {
                  ++refused;
                }
              });
            }
          });
          // Main interleaves flush/pop posts with the producer's Adds.
          for (int i = 0; i < 4; ++i) {
            loop.Post([&] {
              now += 20;  // Past max_batch_wait: open batch expires.
              batcher.CloseExpired(now);
              while (auto batch = batcher.PopClosed(now)) {
                for (const PendingTx& tx : batch->txs) {
                  popped_ids.push_back(tx.tx.id);
                }
              }
            });
          }
          producer.join();
          // Final drain so every accepted tx resolves.
          loop.Post([&] {
            now += 20;
            batcher.CloseExpired(now);
            while (auto batch = batcher.PopClosed(now)) {
              for (const PendingTx& tx : batch->txs) {
                popped_ids.push_back(tx.tx.id);
              }
            }
            SCT_ASSERT(batcher.PendingBytes() == 0);
            SCT_ASSERT(batcher.ClosedCount() == 0);
            SCT_ASSERT(batcher.OpenCount() == 0);
          });
          loop.Stop();
          // Exactly-once: every accepted tx popped exactly once, none
          // invented, none lost — regardless of the Add/flush interleaving.
          SCT_ASSERT(accepted + refused == 6);
          SCT_ASSERT(popped_ids.size() == accepted);
          std::set<uint64_t> unique(popped_ids.begin(), popped_ids.end());
          SCT_ASSERT(unique.size() == popped_ids.size());
        });
    EXPECT_FALSE(result.found)
        << sct::StrategyName(strategy) << ": " << result.first_failure_message
        << "\n" << result.first_failure_trace;
  }
}

TEST(SctIngress, LogSchedulePointPerturbsButNeverBreaks) {
  SCT_REQUIRE_BUILD();
  // LogImpl carries an explicit SchedulePoint (the shared stderr stream is a
  // rendezvous the mutex hooks cannot see). Logging must be ENABLED here:
  // the macro's level check gates the LogImpl call, so a suppressed level
  // would skip the schedule point entirely. Two threads logging while
  // contending a counter must stay consistent under every interleaving.
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  auto result = sct::Explore(
      {.strategy = Strategy::kRandomWalk,
       .seed = BaseSeed(),
       .schedules = 30 * DeepMultiplier()},
      [] {
        Mutex mu("sct_test.log.counter");
        int counter = 0;
        auto work = [&] {
          for (int i = 0; i < 2; ++i) {
            CLANDAG_DEBUG("sct log schedule point %d", i);
            MutexLock lock(mu);
            ++counter;
          }
        };
        Thread a("log-a", work);
        work();
        a.join();
        MutexLock lock(mu);
        SCT_ASSERT(counter == 4);
      });
  SetLogLevel(saved);
  EXPECT_FALSE(result.found)
      << result.first_failure_message << "\n" << result.first_failure_trace;
}

}  // namespace
}  // namespace clandag
