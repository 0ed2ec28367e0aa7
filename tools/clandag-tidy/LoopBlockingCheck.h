// clandag-loop-blocking: event-loop and verify-worker threads must not
// block.
//
// Functions that REQUIRE a ThreadRole capability (CLANDAG_REQUIRES on
// loop_role_ — the TCP loop) execute on a thread
// whose stall stalls every peer's view of this node. Inside such a function
// (nested lambdas excluded — they run wherever their invoker runs), the
// following are findings:
//
//   - CondVar::Wait / WaitUntil / WaitFor;
//   - sleeps (sleep / usleep / nanosleep / std::this_thread::sleep_for /
//     sleep_until), fsync / fdatasync / sync, DNS resolution
//     (getaddrinfo / gethostbyname), poll / select / pselect, and
//     Thread::Join — each either blocks outright or can block unboundedly;
//   - constructing a MutexLock on a Mutex member whose declared rank sits
//     above the leaf bands (kOracle / kInjector in common/mutex.h §13's
//     rank table): those locks are held across fault-injection decisions
//     and oracle scans, exactly the work a loop must never wait behind.
//
// epoll_wait is the loop's one sanctioned wait; nonblocking reads/writes,
// accept4 and leaf-ranked locks (kTcpCommand) pass. Escape hatch: move the
// blocking call behind Post()/Schedule() onto a worker, or
// `// NOLINT(clandag-loop-blocking)` with a justification for a call that is
// provably nonblocking in context (e.g. an O_NONBLOCK connect).

#ifndef CLANDAG_TIDY_LOOP_BLOCKING_CHECK_H_
#define CLANDAG_TIDY_LOOP_BLOCKING_CHECK_H_

#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::clandag {

class LoopBlockingCheck : public ClangTidyCheck {
 public:
  LoopBlockingCheck(StringRef Name, ClangTidyContext* Context)
      : ClangTidyCheck(Name, Context) {}

  void registerMatchers(ast_matchers::MatchFinder* Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult& Result) override;
};

}  // namespace clang::tidy::clandag

#endif  // CLANDAG_TIDY_LOOP_BLOCKING_CHECK_H_
