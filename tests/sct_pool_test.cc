// SCT tests for the PR 6 memory-recycling layer: BufferPool checkout/return
// racing Share()-release from other threads, cap-boundary discard behavior,
// and ControlBlockArena slot recycling — all under adversarial schedules.
//
// These use locally-constructed pools (not the Global() singletons) so each
// schedule starts from a deterministic empty state.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/pool.h"
#include "common/thread.h"
#include "sct_test_util.h"
#include "testing/sct/explore.h"

namespace clandag {
namespace {

using sct::Strategy;
using sct_test::BaseSeed;
using sct_test::DeepMultiplier;

TEST(SctPool, RecycleVsShareRace) {
  SCT_REQUIRE_BUILD();
  for (Strategy strategy : {Strategy::kRandomWalk, Strategy::kPct}) {
    auto result = sct::Explore(
        {.strategy = strategy,
         .seed = BaseSeed(),
         .schedules = 60 * DeepMultiplier()},
        [] {
          BufferPool pool;
          // Each thread tags its buffer, shares it, and checks the tag
          // survives until ITS release — if checkout ever handed the same
          // Bytes to two live handles, a tag would be overwritten.
          auto worker = [&pool](uint8_t tag) {
            for (int round = 0; round < 2; ++round) {
              PooledBytes buf = pool.Acquire();
              SCT_ASSERT(buf.valid());
              SCT_ASSERT(buf->empty());  // Recycled capacity, cleared size.
              buf->push_back(tag);
              std::shared_ptr<const Bytes> shared = std::move(buf).Share();
              SCT_ASSERT(shared != nullptr);
              SCT_ASSERT(shared->size() == 1 && (*shared)[0] == tag);
              // Dropping the last reference returns the buffer to the pool
              // (possibly interleaved with the other thread's Acquire).
              shared.reset();
            }
          };
          Thread a("share-a", [&] { worker(0xAA); });
          worker(0xBB);
          a.join();
          const auto stats = pool.stats();
          SCT_ASSERT(stats.acquires == 4);
          SCT_ASSERT(stats.discards == 0);
          // All buffers back home: nothing leaked mid-race.
          SCT_ASSERT(stats.free_count == stats.high_water);
        });
    EXPECT_FALSE(result.found)
        << sct::StrategyName(strategy) << ": " << result.first_failure_message
        << "\n" << result.first_failure_trace;
  }
}

TEST(SctPool, OversizeBufferDiscardedAtCapBoundary) {
  SCT_REQUIRE_BUILD();
  auto result = sct::Explore(
      {.strategy = Strategy::kRandomWalk,
       .seed = BaseSeed(),
       .schedules = 30 * DeepMultiplier()},
      [] {
        BufferPool pool;
        auto churn = [&pool](size_t reserve_bytes) {
          PooledBytes buf = pool.Acquire();
          buf->reserve(reserve_bytes);
          buf->push_back(1);
          std::move(buf).Share().reset();
        };
        // One thread returns an over-cap buffer (must be discarded, not
        // cached) while the other returns a normal one (must be cached).
        Thread big("share-big",
                   [&] { churn(BufferPool::kMaxPooledBufferBytes + 1); });
        churn(64);
        big.join();
        const auto stats = pool.stats();
        // The over-cap return is discarded in EVERY schedule. Whether the
        // small buffer survives depends on the interleaving (found by the
        // explorer): if big's Acquire reuses main's just-returned node and
        // then grows it past the cap, that one pooled node is discarded too
        // — so cached-at-end plus reuses is the schedule-free invariant.
        SCT_ASSERT(stats.discards == 1);
        SCT_ASSERT(stats.free_count + stats.reuses == 1);
        SCT_ASSERT(stats.retained_bytes <= BufferPool::kMaxPooledBufferBytes);
      });
  EXPECT_FALSE(result.found)
      << result.first_failure_message << "\n" << result.first_failure_trace;
}

TEST(SctPool, ArenaSlotRecycleUnderContention) {
  SCT_REQUIRE_BUILD();
  auto result = sct::Explore(
      {.strategy = Strategy::kPct,
       .seed = BaseSeed(),
       .schedules = 40 * DeepMultiplier()},
      [] {
        // The shared control blocks below come from ControlBlockArena::
        // Global() (a leaked singleton), so measure deltas, not absolutes.
        ControlBlockArena& arena = ControlBlockArena::Global();
        const size_t fallbacks_before = arena.heap_fallbacks();
        BufferPool pool;
        auto worker = [&pool] {
          PooledBytes buf = pool.Acquire();
          buf->push_back(7);
          std::shared_ptr<const Bytes> shared = std::move(buf).Share();
          std::shared_ptr<const Bytes> alias = shared;  // Refcount churn.
          shared.reset();
          SCT_ASSERT(alias->size() == 1);
          alias.reset();
        };
        Thread a("arena-a", worker);
        worker();
        a.join();
        // Working set of 2 control blocks never reaches the carve cap, so
        // the arena must not have fallen back to the heap.
        SCT_ASSERT(arena.heap_fallbacks() == fallbacks_before);
      });
  EXPECT_FALSE(result.found)
      << result.first_failure_message << "\n" << result.first_failure_trace;
}

}  // namespace
}  // namespace clandag
