// Shared-sequencer demo (paper §6.1): a multi-clan deployment where each
// clan serves an independent application ("rollup"). All applications'
// transactions are globally ordered by one DAG consensus; each clan executes
// only its own application's transactions and answers that application's
// clients, who accept once f_c+1 identical receipts arrive.
//
// Runs on the deterministic simulator for up to 20 simulated seconds.
//
//   ./build/examples/shared_sequencer
//
// Exits 0 only if every application confirmed a block and the replicas of
// each clan agree on their application state.

#include <cstdio>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "smr/client.h"

using namespace clandag;

int main() {
  constexpr uint32_t kNodes = 12;
  constexpr uint32_t kClans = 3;  // Three independent applications.
  constexpr uint64_t kTxsPerApp = 30;

  // The cluster builds the same topology from (kNodes, kClans); this copy
  // lets the node setup and the clients know their clans up front.
  const ClanTopology topology = ClanTopology::MultiClan(kNodes, kClans);
  std::printf("topology: %s\n", topology.Describe().c_str());

  // One client per application, matching receipts f_c+1 ways.
  std::vector<ClientReplyCollector> clients;
  for (uint32_t c = 0; c < kClans; ++c) {
    clients.emplace_back(topology.ClanQuorumFor(topology.Clan(c)[0]));
  }

  Cluster::Options options;
  options.num_nodes = kNodes;
  options.clans = kClans;
  options.setup = [&topology, &clients](NodeId id, Cluster::NodeSetup& setup) {
    setup.options.consensus.round_timeout = Seconds(5);
    const int clan = topology.ClanIndexOf(id);
    setup.callbacks.on_receipt = [&clients, clan, id](const ExecutionReceipt& receipt) {
      auto confirmed = clients[clan].AddReply(id, receipt);
      if (confirmed.has_value() && confirmed->txs_executed > 0) {
        std::printf("app %d: block (round %llu, proposer %u) confirmed with %u txs\n", clan,
                    static_cast<unsigned long long>(confirmed->round), confirmed->proposer,
                    confirmed->txs_executed);
      }
    };
    // Each application submits transfers to the first node of its clan.
    if (topology.Clan(clan)[0] == id) {
      for (uint64_t t = 0; t < kTxsPerApp; ++t) {
        setup.preload.emplace_back(clan * 10'000 + t,
                                   EncodeTransfer(static_cast<uint32_t>(t % 5),
                                                  static_cast<uint32_t>(5 + t % 5), 1));
      }
    }
  };
  Cluster cluster(std::move(options));
  cluster.Start();

  // Run until every application's client confirmed its transactions.
  auto confirmed_apps = [&clients] {
    uint32_t confirmed = 0;
    for (const ClientReplyCollector& client : clients) {
      if (client.ConfirmedCount() > 0) {
        ++confirmed;
      }
    }
    return confirmed;
  };
  for (TimeMicros now = 0; now < Seconds(20) && confirmed_apps() < kClans;) {
    now += Millis(50);
    cluster.scheduler().RunUntil(now);
  }

  std::printf("\nper-node summary:\n");
  for (NodeId id = 0; id < kNodes; ++id) {
    AppNode& app = cluster.app(id);
    std::printf("  node %2u (app %d): ordered %llu vertices, executed %llu blocks, state %s\n",
                id, topology.ClanIndexOf(id),
                static_cast<unsigned long long>(app.OrderedVertices()),
                static_cast<unsigned long long>(app.ExecutedBlocks()),
                app.execution().StateDigest().Brief().c_str());
  }
  // Replicas within a clan must agree on their application state.
  bool consistent = true;
  for (uint32_t c = 0; c < kClans; ++c) {
    const auto& clan = topology.Clan(c);
    for (size_t i = 1; i < clan.size(); ++i) {
      if (!(cluster.app(clan[i]).execution().StateDigest() ==
            cluster.app(clan[0]).execution().StateDigest())) {
        consistent = false;
      }
    }
  }
  const uint32_t confirmed = confirmed_apps();
  std::printf("\nintra-clan state consistency: %s\n", consistent ? "OK" : "VIOLATED");
  std::printf("applications confirmed: %u of %u\n", confirmed, kClans);
  return consistent && confirmed == kClans ? 0 : 1;
}
