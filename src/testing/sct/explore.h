// Explore(): run a test body under many deterministic schedules.
//
// Usage (inside a CLANDAG_SCT build; see DESIGN.md §13):
//
//   auto result = sct::Explore({.strategy = sct::Strategy::kPct,
//                               .seed = 42, .schedules = 500},
//                              [] {
//     Fixture f;
//     clandag::Thread t("racer", [&] { f.Poke(); });
//     f.Stop();
//     t.join();
//     SCT_ASSERT(f.consistent());
//   });
//   EXPECT_FALSE(result.found) << result.first_failure_trace;
//
// Each schedule i runs with seed = options.seed + i and is a pure function
// of (strategy, seed): re-running with ExploreOptions{.strategy, .seed =
// result.first_failure_seed, .schedules = 1} replays the failing schedule
// bit-identically. SCT_ASSERT records a failure without aborting, so the
// schedule finishes and its full trace is captured.
//
// Threading: Explore is single-threaded at the API level (call from one
// test thread at a time; nested Explore is a fatal error). The body may
// spawn clandag::Threads freely but must join them all before returning.

#ifndef CLANDAG_TESTING_SCT_EXPLORE_H_
#define CLANDAG_TESTING_SCT_EXPLORE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "testing/sct/scheduler.h"
#include "testing/sct/sct.h"

namespace clandag::sct {

struct ExploreOptions {
  Strategy strategy = Strategy::kRandomWalk;
  // Base seed; schedule i uses seed + i (ignored by kDfs decisions).
  uint64_t seed = 1;
  // Maximum schedules to run. kDfs stops earlier if the space is exhausted.
  uint64_t schedules = 100;
  // See ScheduleOptions; a user hunting a deeper bug or a longer body raises
  // them by hand. Exploration stops at the first failing schedule.
  int pct_depth = 2;            // lint:allow(unset-knob): PCT's bug depth d.
  uint64_t max_steps = 200000;  // lint:allow(unset-knob): the livelock report names it.
  // Suppress the stderr failure report (detection-power tests set this).
  bool quiet = false;
};

struct ExploreResult {
  uint64_t schedules_run = 0;
  // A schedule failed. Exploration stops there, so it is the first and only
  // one, and the first_failure_* fields describe it.
  bool found = false;
  uint64_t first_failure_schedule = 0;  // Index of the first failing schedule.
  uint64_t first_failure_seed = 0;      // Seed that replays it.
  std::string first_failure_message;
  std::string first_failure_trace;
  // kDfs only: the whole schedule space was enumerated.
  bool dfs_exhausted = false;
};

// Runs `body` under up to options.schedules deterministic schedules.
// Fatal-aborts (with dump + trace) on deadlock, leaked thread, or step
// budget overrun inside any schedule. In a non-CLANDAG_SCT build this
// aborts immediately: the hooks are compiled out, so the body would run
// with real OS scheduling and seeded bugs would hang the test.
ExploreResult Explore(const ExploreOptions& options,
                      const std::function<void()>& body);

}  // namespace clandag::sct

// Records a schedule failure (message includes the source location) and lets
// the schedule finish so the trace is complete. Outside a schedule this
// aborts like CLANDAG_CHECK.
#define SCT_ASSERT(cond)                                                 \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::clandag::sct::FailCurrentSchedule(                               \
          "SCT_ASSERT failed: " #cond " (" __FILE__ ":" CLANDAG_SCT_STR( \
              __LINE__) ")");                                            \
    }                                                                    \
  } while (0)

#define CLANDAG_SCT_STR_INNER(x) #x
#define CLANDAG_SCT_STR(x) CLANDAG_SCT_STR_INNER(x)

#endif  // CLANDAG_TESTING_SCT_EXPLORE_H_
