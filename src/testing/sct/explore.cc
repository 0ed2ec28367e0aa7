#include "testing/sct/explore.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/check.h"

namespace clandag::sct {

ExploreResult Explore(const ExploreOptions& options,
                      const std::function<void()>& body) {
#ifndef CLANDAG_SCT
  (void)options;
  (void)body;
  std::fprintf(stderr,
               "sct::Explore requires a -DCLANDAG_SCT=ON build: the Mutex/"
               "CondVar/Thread hooks are compiled out, so the body would run "
               "under real OS scheduling and seeded bugs would hang.\n");
  std::abort();
#else
  ExploreResult result;
  DfsState dfs;
  uint64_t pct_steps_estimate = 256;
  for (uint64_t i = 0; i < options.schedules; ++i) {
    ScheduleOptions so;
    so.strategy = options.strategy;
    so.seed = options.seed + i;
    so.pct_depth = options.pct_depth;
    so.pct_steps_estimate = pct_steps_estimate;
    so.max_steps = options.max_steps;
    auto sched = std::make_unique<Scheduler>(
        so, options.strategy == Strategy::kDfs ? &dfs : nullptr);
    sched->RegisterMain();
    body();
    sched->FinishMain();
    ++result.schedules_run;
    // Feed the observed schedule length back into PCT change-point sampling.
    pct_steps_estimate = std::max<uint64_t>(64, sched->steps());
    if (sched->failed()) {
      result.found = true;
      result.first_failure_schedule = i;
      result.first_failure_seed = so.seed;
      result.first_failure_message = sched->failure_message();
      result.first_failure_trace = sched->FormatTrace();
      if (!options.quiet) {
        std::fprintf(stderr,
                     "SCT: schedule %" PRIu64 " (strategy=%s seed=%" PRIu64
                     ") failed: %s\n%sSCT: replay with ExploreOptions{"
                     ".strategy = Strategy::k%s, .seed = %" PRIu64
                     ", .schedules = 1}\n",
                     i, StrategyName(so.strategy), so.seed,
                     result.first_failure_message.c_str(),
                     result.first_failure_trace.c_str(),
                     so.strategy == Strategy::kPct
                         ? "Pct"
                         : (so.strategy == Strategy::kDfs ? "Dfs"
                                                          : "RandomWalk"),
                     so.seed);
      }
      break;
    }
    if (options.strategy == Strategy::kDfs && !dfs.Advance()) {
      result.dfs_exhausted = true;
      break;
    }
  }
  return result;
#endif
}

}  // namespace clandag::sct
