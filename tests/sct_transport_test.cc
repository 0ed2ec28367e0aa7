// SCT tests for the TcpRuntime command queue. The epoll loop itself stays
// free-running under SCT (it blocks on real sockets), but Send()/Post()
// callers ARE scheduled — so the explorer drives every interleaving of the
// producer side of command_mu_ against Stop() and restart, while the
// lock-order analyzer watches the leaf-lock discipline. The hybrid rules
// (scheduler.h) apply: scheduled threads never suspend while holding the
// REAL command_mu_ (no schedule point inside the critical section), so the
// free-running loop can always drain.

#include <atomic>
#include <memory>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/thread.h"
#include "net/loopback_ports.h"
#include "net/tcp_transport.h"
#include "sct_test_util.h"
#include "testing/sct/explore.h"

namespace clandag {
namespace {

using sct::Strategy;
using sct_test::BaseSeed;
using sct_test::DeepMultiplier;

class CountingHandler final : public MessageHandler {
 public:
  void OnMessage(NodeId, MsgType, const Bytes&) override { ++received_; }
  int received() const { return received_.load(); }

 private:
  std::atomic<int> received_{0};
};

TEST(SctTransport, SendersRaceLoopThenStopThenRestart) {
  SCT_REQUIRE_BUILD();
  auto result = sct::Explore(
      {.strategy = Strategy::kRandomWalk,
       .seed = BaseSeed(),
       .schedules = 12 * DeepMultiplier()},
      [base_port = FreeBasePort()] {
        TcpConfig cfg;
        cfg.id = 0;
        cfg.num_nodes = 2;  // Peer 1 never comes up: preconnect-buffer path.
        cfg.base_port = base_port;
        CountingHandler handler;
        auto payload = std::make_shared<const Bytes>(Bytes{1, 2, 3});
        {
          TcpRuntime rt(cfg, &handler);
          rt.Start();
          std::atomic<int> posts_run{0};
          auto sender = [&] {
            rt.Send(1, /*type=*/7, payload, payload->size());
            rt.Post([&posts_run] { ++posts_run; });
            rt.Send(1, /*type=*/7, payload, payload->size());
          };
          Thread s1("send-1", sender);
          Thread s2("send-2", sender);
          sender();
          s1.join();
          s2.join();
          rt.Stop();
          // After Stop: late Send/Post must be safe no-ops (enqueued, never
          // executed, no touching of closed descriptors).
          rt.Send(1, /*type=*/7, payload, payload->size());
          rt.Post([&posts_run] { ++posts_run; });
          rt.Stop();  // Idempotent.
          SCT_ASSERT(posts_run.load() <= 3);
        }
        {
          // Restart on the same port: bind-after-close must succeed and the
          // fresh command queue must work.
          TcpRuntime rt(cfg, &handler);
          rt.Start();
          rt.Send(1, /*type=*/7, payload, payload->size());
          rt.Stop();
        }
      });
  EXPECT_FALSE(result.found)
      << result.first_failure_message << "\n" << result.first_failure_trace;
}

TEST(SctTransport, SelfSendDeliversBeforeStop) {
  SCT_REQUIRE_BUILD();
  auto result = sct::Explore(
      {.strategy = Strategy::kPct,
       .seed = BaseSeed(),
       .schedules = 8 * DeepMultiplier()},
      [base_port = FreeBasePort()] {
        TcpConfig cfg;
        cfg.id = 0;
        cfg.num_nodes = 1;
        cfg.base_port = base_port;
        CountingHandler handler;
        auto payload = std::make_shared<const Bytes>(Bytes{9});
        TcpRuntime rt(cfg, &handler);
        rt.Start();
        CLANDAG_CHECK(rt.WaitConnected(Seconds(10)));
        Thread s("self-send",
                 [&] { rt.Send(0, /*type=*/3, payload, payload->size()); });
        s.join();
        // Give the free-running loop a real-time window to deliver, then
        // stop; delivery count is checked after the join inside Stop().
        rt.Stop();
        SCT_ASSERT(handler.received() <= 1);
      });
  EXPECT_FALSE(result.found)
      << result.first_failure_message << "\n" << result.first_failure_trace;
}

}  // namespace
}  // namespace clandag
