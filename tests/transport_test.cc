// Real-transport tests: the epoll TCP mesh, including a small live consensus
// run over TCP on localhost.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/cluster.h"
#include "net/loopback_ports.h"
#include "net/tcp_transport.h"
#include "smr/execution.h"

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

  bool WaitForCount(size_t count, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return received.size() >= count; });
  }
};

TEST(TcpTransport, MeshConnectsAndDelivers) {
  constexpr uint32_t kNodes = 3;
  const uint16_t base_port = FreeBasePort();
  CountingHandler handlers[kNodes];
  std::vector<std::unique_ptr<TcpRuntime>> nodes;
  for (NodeId id = 0; id < kNodes; ++id) {
    TcpConfig config;
    config.id = id;
    config.num_nodes = kNodes;
    config.base_port = base_port;
    nodes.push_back(std::make_unique<TcpRuntime>(config, &handlers[id]));
  }
  for (auto& node : nodes) {
    node->Start();
  }
  for (auto& node : nodes) {
    ASSERT_TRUE(node->WaitConnected(Seconds(10)));
  }
  nodes[0]->Send(1, 42, ToBytes("over tcp"));
  nodes[2]->Send(1, 43, ToBytes("also tcp"));
  EXPECT_TRUE(handlers[1].WaitForCount(2));
  for (auto& node : nodes) {
    node->Stop();
  }
}

TEST(TcpTransport, LargeFrameRoundTrips) {
  constexpr uint32_t kNodes = 2;
  const uint16_t base_port = FreeBasePort();
  CountingHandler handlers[kNodes];
  std::vector<std::unique_ptr<TcpRuntime>> nodes;
  for (NodeId id = 0; id < kNodes; ++id) {
    TcpConfig config;
    config.id = id;
    config.num_nodes = kNodes;
    config.base_port = base_port;
    nodes.push_back(std::make_unique<TcpRuntime>(config, &handlers[id]));
  }
  for (auto& node : nodes) {
    node->Start();
  }
  ASSERT_TRUE(nodes[0]->WaitConnected(Seconds(10)));
  Bytes big(3 << 20, 0xab);  // A 3 MB "proposal".
  nodes[0]->Send(1, 5, std::move(big));
  EXPECT_TRUE(handlers[1].WaitForCount(1, 15000));
  for (auto& node : nodes) {
    node->Stop();
  }
}

TEST(TcpTransport, SelfSendLoopsBack) {
  const uint16_t base_port = FreeBasePort();
  CountingHandler handler;
  TcpConfig config;
  config.id = 0;
  config.num_nodes = 1;
  config.base_port = base_port;
  TcpRuntime node(config, &handler);
  node.Start();
  node.Send(0, 11, ToBytes("self"));
  EXPECT_TRUE(handler.WaitForCount(1));
  node.Stop();
}

TEST(TcpTransport, ScheduleRunsOnLoopThread) {
  const uint16_t base_port = FreeBasePort();
  CountingHandler handler;
  TcpConfig config;
  config.id = 0;
  config.num_nodes = 1;
  config.base_port = base_port;
  TcpRuntime node(config, &handler);
  node.Start();
  std::atomic<bool> fired{false};
  node.Schedule(Millis(30), [&] { fired.store(true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(fired.load());
  node.Stop();
}

// Waits until `h` has received at least one message of `type`.
bool WaitForType(CountingHandler& h, MsgType type, int timeout_ms = 5000) {
  std::unique_lock<std::mutex> lock(h.mu);
  return h.cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    for (const auto& [from, t] : h.received) {
      if (t == type) {
        return true;
      }
    }
    return false;
  });
}

// Cross-thread contract: Send() is callable from any thread. Concurrent
// Send() callers share the command queue and the wake eventfd; nothing may be
// lost once connected. Primarily a ThreadSanitizer target (CI job `tsan`).
TEST(TcpTransport, SendFromManyThreadsDeliversAll) {
  constexpr uint32_t kNodes = 2;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  const uint16_t base_port = FreeBasePort();
  CountingHandler handlers[kNodes];
  std::vector<std::unique_ptr<TcpRuntime>> nodes;
  for (NodeId id = 0; id < kNodes; ++id) {
    TcpConfig config;
    config.id = id;
    config.num_nodes = kNodes;
    config.base_port = base_port;
    nodes.push_back(std::make_unique<TcpRuntime>(config, &handlers[id]));
  }
  for (auto& node : nodes) {
    node->Start();
  }
  for (auto& node : nodes) {
    ASSERT_TRUE(node->WaitConnected(Seconds(10)));
  }
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&nodes, t] {
      for (int i = 0; i < kPerThread; ++i) {
        nodes[0]->Send(1, static_cast<MsgType>(20 + t), ToBytes("tcp"));
      }
    });
  }
  for (auto& th : senders) {
    th.join();
  }
  EXPECT_TRUE(handlers[1].WaitForCount(kThreads * kPerThread, 30000));
  for (auto& node : nodes) {
    node->Stop();
  }
}

// Stop() racing in-flight Send()s from other threads: late sends are dropped,
// never crash, and the eventfd stays valid for the object's whole lifetime.
TEST(TcpTransport, StopWhileSendersRunning) {
  constexpr uint32_t kNodes = 2;
  const uint16_t base_port = FreeBasePort();
  CountingHandler handlers[kNodes];
  std::vector<std::unique_ptr<TcpRuntime>> nodes;
  for (NodeId id = 0; id < kNodes; ++id) {
    TcpConfig config;
    config.id = id;
    config.num_nodes = kNodes;
    config.base_port = base_port;
    nodes.push_back(std::make_unique<TcpRuntime>(config, &handlers[id]));
  }
  for (auto& node : nodes) {
    node->Start();
  }
  for (auto& node : nodes) {
    ASSERT_TRUE(node->WaitConnected(Seconds(10)));
  }
  std::atomic<bool> done{false};
  std::vector<std::thread> senders;
  for (int t = 0; t < 3; ++t) {
    senders.emplace_back([&nodes, &done] {
      for (int i = 0; i < 50000 && !done.load(); ++i) {
        nodes[0]->Send(1, 21, ToBytes("x"));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  nodes[0]->Stop();  // Concurrent with the senders, by design.
  done.store(true);
  for (auto& th : senders) {
    th.join();
  }
  nodes[0]->Send(1, 22, ToBytes("late send on stopped runtime"));
  nodes[1]->Stop();
}

// Full lifecycle churn: Start/Stop cycles on the same objects while sender
// threads keep firing across the boundaries. After the final restart the
// mesh must reconnect and deliver again.
TEST(TcpTransport, StartStopCyclesWithConcurrentSenders) {
  constexpr uint32_t kNodes = 2;
  const uint16_t base_port = FreeBasePort();
  CountingHandler handlers[kNodes];
  std::vector<std::unique_ptr<TcpRuntime>> nodes;
  for (NodeId id = 0; id < kNodes; ++id) {
    TcpConfig config;
    config.id = id;
    config.num_nodes = kNodes;
    config.base_port = base_port;
    nodes.push_back(std::make_unique<TcpRuntime>(config, &handlers[id]));
  }
  std::atomic<bool> done{false};
  std::vector<std::thread> senders;
  for (int t = 0; t < 2; ++t) {
    senders.emplace_back([&nodes, &done] {
      while (!done.load()) {
        nodes[0]->Send(1, 23, ToBytes("churn"));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (auto& node : nodes) {
      node->Start();
    }
    for (auto& node : nodes) {
      ASSERT_TRUE(node->WaitConnected(Seconds(10))) << "cycle " << cycle;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (auto& node : nodes) {
      node->Stop();
    }
  }
  done.store(true);
  for (auto& th : senders) {
    th.join();
  }
  // One more clean start: the transport must still work after the churn.
  for (auto& node : nodes) {
    node->Start();
  }
  for (auto& node : nodes) {
    ASSERT_TRUE(node->WaitConnected(Seconds(10)));
  }
  nodes[0]->Send(1, 99, ToBytes("post-churn"));
  EXPECT_TRUE(WaitForType(handlers[1], 99));
  for (auto& node : nodes) {
    node->Stop();
  }
}

// End-to-end: four AppNodes over real TCP sockets reach consensus on
// client transactions and execute them identically.
TEST(TcpTransport, FourNodeConsensusCommits) {
  constexpr uint32_t kNodes = 4;
  std::vector<std::atomic<uint64_t>> executed(kNodes);

  Cluster::Options options;
  options.kind = Cluster::Kind::kTcp;
  options.num_nodes = kNodes;
  // Client transfers queued at every node before consensus starts.
  options.setup = [&executed](NodeId id, Cluster::NodeSetup& setup) {
    setup.options.consensus.round_timeout = Seconds(5);
    auto* counter = &executed[id];
    setup.callbacks.on_receipt = [counter](const ExecutionReceipt& r) {
      counter->fetch_add(r.txs_executed);
    };
    for (uint64_t t = 0; t < 20; ++t) {
      setup.preload.emplace_back(id * 1000 + t, EncodeTransfer(1, 2, 5));
    }
  };
  Cluster cluster(std::move(options));
  ASSERT_TRUE(cluster.Start());
  // Wait until every node executed all 80 submitted transactions.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool all_done = false;
  while (!all_done && std::chrono::steady_clock::now() < deadline) {
    all_done = true;
    for (NodeId id = 0; id < kNodes; ++id) {
      if (executed[id].load() < 80) {
        all_done = false;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(all_done) << "not all transactions executed in time";
  cluster.Stop();
  // All replicas applied the same state transitions.
  const Digest reference = cluster.app(0).execution().StateDigest();
  for (NodeId id = 1; id < kNodes; ++id) {
    EXPECT_EQ(cluster.app(id).execution().StateDigest(), reference) << "node " << id;
  }
}

}  // namespace
}  // namespace clandag
