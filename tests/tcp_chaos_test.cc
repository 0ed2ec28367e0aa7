// TCP transport hardening tests: the pre-connect buffer (no silent loss to
// peers that are not up yet), partition-and-heal with counter reconciliation,
// dial backoff with peer-health tracking, and — the chaos satellite — the
// Byzantine behaviour suite running over real sockets with the safety oracle
// watching every honest node.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/byzantine.h"
#include "core/cluster.h"
#include "fault/oracles.h"
#include "net/loopback_ports.h"
#include "net/tcp_transport.h"

namespace clandag {
namespace {

struct CountingHandler : MessageHandler {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<NodeId, MsgType>> received;

  void OnMessage(NodeId from, MsgType type, const Bytes& /*payload*/) override {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back({from, type});
    cv.notify_all();
  }

  bool WaitForCount(size_t count, int timeout_ms = 10000) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return received.size() >= count; });
  }
};

TcpConfig MakeConfig(NodeId id, uint32_t n, uint16_t base_port) {
  TcpConfig config;
  config.id = id;
  config.num_nodes = n;
  config.base_port = base_port;
  config.dial_retry = Millis(20);
  config.dial_retry_cap = Millis(200);
  return config;
}

// Sends issued before the peer ever came up must be buffered and flushed on
// connect, not silently dropped (the seed transport dropped them).
TEST(TcpHardening, PreConnectSendsFlushOnFirstConnect) {
  constexpr int kMsgs = 25;
  const uint16_t base_port = FreeBasePort();
  CountingHandler handlers[2];
  TcpRuntime node0(MakeConfig(0, 2, base_port), &handlers[0]);
  node0.Start();

  // Peer 1 is not even listening yet.
  for (int i = 0; i < kMsgs; ++i) {
    node0.Send(1, static_cast<MsgType>(i), ToBytes("early"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    const TransportStats s = node0.Stats();
    EXPECT_EQ(s.preconnect_buffered, static_cast<uint64_t>(kMsgs));
    EXPECT_EQ(s.preconnect_flushed, 0u);
    EXPECT_GT(s.dial_failures, 0u);  // It has been retrying.
  }
  EXPECT_GT(node0.HealthOf(1).consecutive_failures, 0u);
  EXPECT_FALSE(node0.HealthOf(1).connected);

  TcpRuntime node1(MakeConfig(1, 2, base_port), &handlers[1]);
  node1.Start();
  ASSERT_TRUE(node0.WaitConnected(Seconds(10)));
  EXPECT_TRUE(handlers[1].WaitForCount(kMsgs));

  const TransportStats s = node0.Stats();
  EXPECT_EQ(s.preconnect_buffered, static_cast<uint64_t>(kMsgs));
  EXPECT_EQ(s.preconnect_flushed, static_cast<uint64_t>(kMsgs));
  EXPECT_EQ(s.preconnect_dropped, 0u);
  EXPECT_TRUE(node0.HealthOf(1).connected);
  EXPECT_EQ(node0.HealthOf(1).consecutive_failures, 0u);
  node0.Stop();
  node1.Stop();
}

// Partition (peer process dies) and heal (it comes back): every frame handed
// to Send() while the link was down is either delivered after the heal or
// shows up in a drop counter — the conservation law, end to end.
TEST(TcpHardening, PartitionHealReconcilesCounters) {
  constexpr int kDownSends = 40;
  const uint16_t base_port = FreeBasePort();
  CountingHandler h0;
  CountingHandler h1a;
  TcpRuntime node0(MakeConfig(0, 2, base_port), &h0);
  node0.Start();
  auto node1 = std::make_unique<TcpRuntime>(MakeConfig(1, 2, base_port), &h1a);
  node1->Start();
  ASSERT_TRUE(node0.WaitConnected(Seconds(10)));
  node0.Send(1, 1, ToBytes("baseline"));
  ASSERT_TRUE(h1a.WaitForCount(1));

  // Partition: peer 1's process goes away entirely.
  node1->Stop();
  node1.reset();
  // Wait until node 0 noticed the link is down (close or failed redial).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (node0.HealthOf(1).connected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(node0.HealthOf(1).connected);

  for (int i = 0; i < kDownSends; ++i) {
    node0.Send(1, static_cast<MsgType>(100 + (i % 50)), ToBytes("during partition"));
  }

  // Heal: a fresh incarnation of peer 1 on the same address.
  CountingHandler h1b;
  node1 = std::make_unique<TcpRuntime>(MakeConfig(1, 2, base_port), &h1b);
  node1->Start();
  ASSERT_TRUE(node0.WaitConnected(Seconds(10)));

  const TransportStats s = node0.Stats();
  const uint64_t dropped = s.preconnect_dropped + s.queue_dropped + s.partial_dropped;
  // Everything buffered during the partition that was not dropped arrives.
  const size_t expect_delivered = static_cast<size_t>(kDownSends) - dropped;
  EXPECT_TRUE(h1b.WaitForCount(expect_delivered));
  // Conservation: nothing vanished without a counter.
  EXPECT_EQ(s.preconnect_buffered, s.preconnect_flushed + s.preconnect_dropped);
  node0.Stop();
  node1->Stop();
}

// The pre-connect buffer is bounded: oldest frames are evicted and counted.
TEST(TcpHardening, PreConnectBufferBoundedOldestEvicted) {
  const uint16_t base_port = FreeBasePort();
  CountingHandler handler;
  TcpConfig config = MakeConfig(0, 2, base_port);
  config.max_preconnect_bytes = 512;  // A handful of frames.
  TcpRuntime node0(config, &handler);
  node0.Start();
  for (int i = 0; i < 100; ++i) {
    node0.Send(1, 7, Bytes(64, 0xaa));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const TransportStats s = node0.Stats();
  EXPECT_EQ(s.preconnect_buffered, 100u);
  EXPECT_GT(s.preconnect_dropped, 0u);
  // Still-buffered remainder fits the bound.
  const uint64_t remaining = s.preconnect_buffered - s.preconnect_flushed - s.preconnect_dropped;
  EXPECT_LE(remaining * 64, 512u + 64u);
  node0.Stop();
}

// Dial retries back off exponentially: over one second against a dead peer,
// a 20ms→200ms capped schedule attempts far fewer dials than flat-20ms would.
TEST(TcpHardening, DialBackoffSlowsRetryStorm) {
  const uint16_t base_port = FreeBasePort();
  CountingHandler handler;
  TcpRuntime node0(MakeConfig(0, 2, base_port), &handler);
  node0.Start();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const TransportStats s = node0.Stats();
  EXPECT_GE(s.dial_attempts, 3u);   // It keeps trying...
  EXPECT_LE(s.dial_attempts, 30u);  // ...but nowhere near 1s/20ms = 50 dials.
  EXPECT_GE(node0.HealthOf(1).consecutive_failures, 3u);
  node0.Stop();
}

// Chaos satellite: every Byzantine behaviour running over real TCP sockets,
// one adversary per run, with the safety oracle tapped into every honest
// node's commit stream. Safety must hold on real transports exactly as in
// the simulator.
TEST(TcpChaos, ByzantineSuiteOverTcpPreservesSafety) {
  const ByzantineBehavior kBehaviors[] = {
      ByzantineBehavior::kEquivocateVertices,
      ByzantineBehavior::kSilentLeader,
      ByzantineBehavior::kUnjustifiedLeader,
  };
  for (ByzantineBehavior behavior : kBehaviors) {
    constexpr uint32_t kNodes = 4;
    constexpr NodeId kByz = 1;
    SafetyOracle oracle(kNodes);
    oracle.SetFaulty(kByz, true);
    std::vector<std::atomic<uint64_t>> ordered(kNodes);

    Cluster::Options options;
    options.kind = Cluster::Kind::kTcp;
    options.num_nodes = kNodes;
    options.wrap = [behavior](NodeId id, RuntimeStack& stack) {
      if (id == kByz) {
        stack.Push<ByzantineRuntime>(std::set<ByzantineBehavior>{behavior});
      }
    };
    options.setup = [&ordered, &oracle](NodeId id, Cluster::NodeSetup& setup) {
      setup.options.consensus.round_timeout = Millis(500);
      // Chaos coverage for the off-thread verification path: echo HMACs and
      // cert multisigs are checked on worker threads under real Byzantine
      // traffic, with in-order delivery back onto the loop thread.
      setup.options.verify_workers = 2;
      auto* counter = &ordered[id];
      setup.callbacks.on_ordered = [counter, id, &oracle](const Vertex& v) {
        counter->fetch_add(1);
        oracle.OnOrdered(id, v.round, v.source);
      };
      setup.callbacks.on_completed = [id, &oracle](const Vertex& v, const Digest& d) {
        oracle.OnCompleted(id, v.round, v.source, d);
      };
      for (uint64_t t = 0; t < 10; ++t) {
        setup.preload.emplace_back(id * 1000 + t, Bytes(32, 0x11));
      }
    };
    Cluster cluster(std::move(options));
    ASSERT_TRUE(cluster.Start());
    // Run until every honest node ordered a healthy chunk of DAG.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool done = false;
    while (!done && std::chrono::steady_clock::now() < deadline) {
      done = true;
      for (NodeId id = 0; id < kNodes; ++id) {
        if (id != kByz && ordered[id].load() < 40) {
          done = false;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    cluster.Stop();
    EXPECT_TRUE(done) << "behavior " << static_cast<int>(behavior)
                      << ": honest nodes did not make progress over TCP";
    EXPECT_EQ(oracle.Check(), "") << "behavior " << static_cast<int>(behavior);
  }
}

}  // namespace
}  // namespace clandag
