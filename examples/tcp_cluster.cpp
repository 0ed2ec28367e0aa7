// Live TCP cluster demo: four consensus nodes over real localhost sockets
// (epoll, length-prefixed frames), committing and executing client
// transfers submitted at runtime.
//
//   ./build/examples/tcp_cluster [base_port]
//
// Without a base port the nodes listen on a free loopback block. Exits 0
// only if every node executed all submitted transfers to the same state.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "core/cluster.h"

using namespace clandag;

int main(int argc, char** argv) {
  constexpr uint32_t kNodes = 4;
  constexpr uint64_t kTxsPerNode = 25;
  constexpr uint64_t kTotalTxs = kNodes * kTxsPerNode;

  // Executed-transaction counts, written on each node's loop thread.
  std::array<std::atomic<uint64_t>, kNodes> executed{};

  Cluster::Options options;
  options.kind = Cluster::Kind::kTcp;
  options.num_nodes = kNodes;
  if (argc > 1) {
    options.base_port = static_cast<uint16_t>(std::atoi(argv[1]));
  }
  options.setup = [&executed](NodeId id, Cluster::NodeSetup& setup) {
    setup.options.consensus.round_timeout = Seconds(5);
    setup.callbacks.on_receipt = [&executed, id](const ExecutionReceipt& r) {
      executed[id] += r.txs_executed;
      if (id == 0 && r.txs_executed > 0) {
        std::printf("executed block (round %llu, proposer %u): %u txs, state %s\n",
                    static_cast<unsigned long long>(r.round), r.proposer, r.txs_executed,
                    r.state_digest.Brief().c_str());
      }
    };
    for (uint64_t t = 0; t < kTxsPerNode; ++t) {
      setup.preload.emplace_back(id * 1000 + t,
                                 EncodeTransfer(static_cast<uint32_t>(t % 3),
                                                static_cast<uint32_t>(3 + t % 3), 2));
    }
  };
  Cluster cluster(std::move(options));

  std::printf("starting %u nodes on 127.0.0.1:%u..%u\n", kNodes, cluster.base_port(),
              cluster.base_port() + kNodes - 1);
  if (!cluster.Start()) {
    std::printf("mesh failed to connect (port collision?)\n");
    return 1;
  }
  std::printf("mesh connected; consensus started with %llu transactions queued\n",
              static_cast<unsigned long long>(kTotalTxs));

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    bool done = true;
    for (const auto& count : executed) {
      if (count.load() < kTotalTxs) {
        done = false;
      }
    }
    if (done) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  cluster.Stop();

  std::printf("\nfinal state digests:\n");
  bool consistent = true;
  bool complete = true;
  for (NodeId id = 0; id < kNodes; ++id) {
    const ExecutionEngine& execution = cluster.app(id).execution();
    std::printf("  node %u: %s (%llu txs executed)\n", id, execution.StateDigest().Brief().c_str(),
                static_cast<unsigned long long>(execution.ExecutedTxs()));
    if (!(execution.StateDigest() == cluster.app(0).execution().StateDigest())) {
      consistent = false;
    }
    if (execution.ExecutedTxs() != kTotalTxs) {
      complete = false;
    }
  }
  std::printf("replica consistency: %s\n", consistent ? "OK" : "VIOLATED");
  std::printf("all %llu transactions executed everywhere: %s\n",
              static_cast<unsigned long long>(kTotalTxs), complete ? "OK" : "NO");
  return consistent && complete ? 0 : 1;
}
