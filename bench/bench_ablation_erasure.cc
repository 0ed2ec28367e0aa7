// Ablation for the paper's §3 remark: erasure-coded dispersal RBC (AVID
// style) versus the plain tribe-assisted RBC the paper chooses, run by the
// merged vertex+block broadcast consensus uses (consensus/dissemination.h).
//
// Measures, for one dissemination of the paper's 3 MB proposal at n = 50:
//  - total bytes on the wire (the erasure code's worst-case win),
//  - simulated completion latency at 1 Gbps uplinks,
//  - *real* encode/decode CPU time (the overhead the paper cites for
//    avoiding erasure codes in the common case).

#include <memory>

#include "bench/bench_util.h"
#include "consensus/dissemination.h"
#include "rbc/avid_rbc.h"
#include "sim/network.h"

using namespace clandag;
using namespace clandag::bench;

namespace {

struct RunResult {
  double complete_ms = 0;     // Time until every node delivered; -1 if some never did.
  double total_mb = 0;        // Bytes sent across the network.
  double coding_ms = 0;       // Host CPU spent encoding/decoding (AVID only).
};

RunResult RunAvid(uint32_t n, const Bytes& value) {
  Scheduler scheduler;
  SimNetwork network(scheduler, LatencyMatrix::GcpGeoDistributed(n), NetworkConfig{125e6, 64});
  AvidConfig config;
  config.num_nodes = n;
  config.num_faults = (n - 1) / 3;
  uint32_t delivered = 0;
  TimeMicros last_delivery = 0;
  std::vector<std::unique_ptr<SimRuntime>> runtimes;
  std::vector<std::unique_ptr<AvidRbc>> engines;
  struct Adapter : MessageHandler {
    AvidRbc* engine = nullptr;
    void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
      engine->HandleMessage(from, type, payload);
    }
  };
  std::vector<Adapter> adapters(n);
  for (NodeId id = 0; id < n; ++id) {
    runtimes.push_back(std::make_unique<SimRuntime>(network, id));
    engines.push_back(std::make_unique<AvidRbc>(
        *runtimes[id], config,
        [&, id](NodeId, Round, const Digest&, const Bytes&) {
          ++delivered;
          last_delivery = scheduler.Now();
        }));
    adapters[id].engine = engines[id].get();
    network.RegisterHandler(id, &adapters[id]);
  }
  engines[0]->Broadcast(1, value);
  scheduler.RunUntilIdle(500'000'000);
  RunResult out;
  out.complete_ms = delivered == n ? ToMillis(last_delivery) : -1;
  out.total_mb = static_cast<double>(network.TotalBytesSent()) / 1e6;
  for (auto& engine : engines) {
    out.coding_ms += engine->CodingMicros() / 1000.0;
  }
  return out;
}

// The tribe-assisted RBC as consensus runs it: sender 0's vertex carries
// the value as its block's real payload, the block goes to the clan only.
// Done once every node completed the instance and every clan member holds
// the block.
RunResult RunTribe(uint32_t n, uint32_t clan_size, const Bytes& value) {
  Scheduler scheduler;
  SimNetwork network(scheduler, LatencyMatrix::GcpGeoDistributed(n), NetworkConfig{125e6, 64});
  Keychain keychain(1, n);
  const ClanTopology topology = ClanTopology::SingleClanSpread(n, clan_size);
  DisseminationConfig config;
  config.num_nodes = n;
  config.num_faults = (n - 1) / 3;
  uint32_t completed = 0;
  uint32_t blocks = 0;
  TimeMicros last_delivery = 0;
  std::vector<std::unique_ptr<SimRuntime>> runtimes;
  std::vector<std::unique_ptr<VertexDisseminator>> dissems;
  struct Adapter : MessageHandler {
    VertexDisseminator* dissem = nullptr;
    void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
      dissem->HandleMessage(from, type, payload);
    }
  };
  std::vector<Adapter> adapters(n);
  for (NodeId id = 0; id < n; ++id) {
    runtimes.push_back(std::make_unique<SimRuntime>(network, id));
    DisseminationCallbacks callbacks;
    callbacks.on_vertex_val = [](const Vertex&) {};
    callbacks.on_vertex_complete = [&](const Vertex&, const Digest&) {
      ++completed;
      last_delivery = scheduler.Now();
    };
    callbacks.on_block = [&](const BlockInfo&) {
      ++blocks;
      last_delivery = scheduler.Now();
    };
    dissems.push_back(std::make_unique<VertexDisseminator>(*runtimes[id], keychain, topology,
                                                           config, std::move(callbacks)));
    adapters[id].dissem = dissems[id].get();
    network.RegisterHandler(id, &adapters[id]);
  }
  BlockInfo block;
  block.proposer = 0;
  block.round = 1;
  block.payload = value;
  Vertex vertex;
  vertex.round = 1;
  vertex.source = 0;
  vertex.block_digest = block.ComputeDigest();
  dissems[0]->Propose(vertex, std::move(block));
  scheduler.RunUntilIdle(500'000'000);
  RunResult out;
  out.complete_ms = completed == n && blocks == clan_size ? ToMillis(last_delivery) : -1;
  out.total_mb = static_cast<double>(network.TotalBytesSent()) / 1e6;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const uint32_t n = quick ? 16 : 50;
  const uint32_t clan = PaperClanSize(n);
  const size_t value_size = quick ? (256u << 10) : (3u << 20);

  Bytes value(value_size);
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<uint8_t>(i * 2654435761u);
  }

  std::printf("== Ablation (§3 remark): erasure-coded dispersal vs tribe-assisted RBC ==\n");
  std::printf("one %zu KB proposal, n = %u, clan = %u, GCP latencies, 1 Gbps uplink\n\n",
              value_size >> 10, n, clan);
  std::printf("%-26s %14s %14s %18s\n", "protocol", "complete ms", "total MB", "coding CPU ms");

  RunResult tribe = RunTribe(n, clan, value);
  std::printf("%-26s %14.1f %14.1f %18s\n", "tribe-assisted (Fig 3)", tribe.complete_ms,
              tribe.total_mb, "0 (none)");
  std::fflush(stdout);

  RunResult avid = RunAvid(n, value);
  std::printf("%-26s %14.1f %14.1f %18.1f\n", "erasure-coded (AVID)", avid.complete_ms,
              avid.total_mb, avid.coding_ms);

  if (tribe.complete_ms < 0 || avid.complete_ms < 0) {
    std::fprintf(stderr, "FAIL: a protocol did not deliver everywhere\n");
    return 1;
  }

  std::printf(
      "\nthe coded protocol delivers to ALL n parties with bounded worst-case traffic,\n"
      "but pays real encode/decode CPU on every proposal — the overhead the paper's\n"
      "§3 remark cites for avoiding erasure codes in DAG BFT (where per-node\n"
      "bandwidth is already balanced by the multi-proposer design).\n");
  return 0;
}
