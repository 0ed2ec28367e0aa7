#include "core/scenario.h"

#include <algorithm>
#include <memory>

#include "common/quorum.h"
#include "common/check.h"
#include "common/log.h"
#include "common/rng.h"
#include "consensus/sailfish.h"
#include "core/metrics.h"
#include "sim/network.h"
#include "smr/mempool.h"
#include "stats/clan_sizing.h"

namespace clandag {

namespace {

struct OrderLogEntry {
  Round round;
  NodeId source;
  friend bool operator==(const OrderLogEntry& a, const OrderLogEntry& b) {
    return a.round == b.round && a.source == b.source;
  }
};

}  // namespace

ClanTopology TopologyFor(const ScenarioOptions& options) {
  const uint32_t n = options.num_nodes;
  DetRng rng(options.seed ^ 0xc1a5u);
  switch (options.mode) {
    case DisseminationMode::kFull:
      return ClanTopology::Full(n);
    case DisseminationMode::kSingleClan: {
      uint32_t size = options.clan_size;
      if (size == 0) {
        // The paper's evaluation sizes follow the strict-majority reading of
        // the failure condition (see EXPERIMENTS.md).
        size = static_cast<uint32_t>(
            MinClanSizeForTribe(n, options.clan_mu, MajorityRule::kStrictMajority));
      }
      return options.random_clans ? ClanTopology::SingleClanRandom(n, size, rng)
                                  : ClanTopology::SingleClanSpread(n, size);
    }
    case DisseminationMode::kMultiClan:
      return options.random_clans ? ClanTopology::MultiClanRandom(n, options.num_clans, rng)
                                  : ClanTopology::MultiClan(n, options.num_clans);
  }
  return ClanTopology::Full(n);
}

ScenarioResult RunScenario(const ScenarioOptions& options) {
  ScenarioResult result;
  const uint32_t n = options.num_nodes;
  const uint32_t f = static_cast<uint32_t>(MaxTribeFaults(n));
  CLANDAG_CHECK(n >= 4);
  CLANDAG_CHECK(options.crashed.size() <= f);

  Keychain keychain(options.seed, n);
  ClanTopology topology = TopologyFor(options);

  LatencyMatrix latency = options.topology == ScenarioOptions::Topology::kGcpGeo
                              ? LatencyMatrix::GcpGeoDistributed(n)
                              : LatencyMatrix::Uniform(n, options.uniform_latency);
  Scheduler scheduler;
  NetworkConfig net_config;
  net_config.uplink_bytes_per_sec = options.uplink_bytes_per_sec;
  SimNetwork network(scheduler, std::move(latency), net_config);

  if (options.cost.enabled) {
    const TimeMicros per_message = options.cost.per_message;
    const double per_byte = options.cost.per_block_byte_us;
    network.SetCpuCost([per_message, per_byte](NodeId, MsgType type, size_t wire) {
      TimeMicros cost = per_message;
      if (type == kConsBlock || type == kConsBlockPullResp) {
        cost += static_cast<TimeMicros>(per_byte * static_cast<double>(wire));
      }
      return cost;
    });
  }

  // Per-node plumbing.
  std::vector<std::unique_ptr<SimRuntime>> runtimes;
  std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
  std::vector<std::unique_ptr<SailfishNode>> nodes;
  std::vector<std::vector<OrderLogEntry>> order_logs(n);
  runtimes.reserve(n);
  workloads.reserve(n);
  nodes.reserve(n);

  const Round start_round = options.warmup_rounds;
  const Round end_round = options.warmup_rounds + options.measure_rounds;

  // Reference node for throughput/window accounting: first non-crashed node.
  NodeId ref = 0;
  while (std::find(options.crashed.begin(), options.crashed.end(), ref) !=
         options.crashed.end()) {
    ++ref;
  }
  CLANDAG_CHECK(ref < n);

  LatencyStats latency_stats;
  uint64_t committed_txs = 0;       // At node 0, within the window.
  TimeMicros window_start = -1;
  TimeMicros window_end = -1;
  uint64_t window_start_bytes = 0;
  bool done = false;

  for (NodeId id = 0; id < n; ++id) {
    runtimes.push_back(std::make_unique<SimRuntime>(network, id));
    SyntheticWorkload::Options wopts;
    wopts.txs_per_proposal = options.txs_per_proposal;
    wopts.tx_size = options.tx_size;
    workloads.push_back(std::make_unique<SyntheticWorkload>(wopts));

    SailfishConfig config;
    config.num_nodes = n;
    config.num_faults = f;
    config.round_timeout = options.round_timeout;
    config.dissemination.flavor = options.flavor;
    config.dissemination.multicast_cert = options.multicast_cert;
    config.dissemination.verify_signatures = options.verify_signatures;

    SailfishCallbacks callbacks;
    callbacks.on_ordered = [&, id](const Vertex& v) {
      order_logs[id].push_back(OrderLogEntry{v.round, v.source});
      const bool in_window = v.round >= start_round && v.round < end_round;
      if (in_window && v.block_tx_count > 0) {
        const TimeMicros now = scheduler.Now();
        latency_stats.Add(ToMillis(now - v.block_created_at), v.block_tx_count);
        if (id == ref) {
          committed_txs += v.block_tx_count;
        }
      }
      if (id == ref) {
        if (window_start < 0 && v.round >= start_round) {
          window_start = scheduler.Now();
          window_start_bytes = network.TotalBytesSent();
        }
        if (v.round >= end_round) {
          window_end = scheduler.Now();
          done = true;
        }
      }
    };

    nodes.push_back(std::make_unique<SailfishNode>(*runtimes[id], keychain, topology, config,
                                                   workloads[id].get(), std::move(callbacks)));
    network.RegisterHandler(id, nodes[id].get());
  }

  for (NodeId id : options.crashed) {
    network.SetCrashed(id, true);
  }
  for (NodeId id = 0; id < n; ++id) {
    if (!network.IsCrashed(id)) {
      nodes[id]->Start();
    }
  }

  // Drive the simulation until node 0 orders past the measurement window.
  while (!done) {
    if (!scheduler.Step()) {
      result.error = "simulation went idle before the measurement window completed";
      return result;
    }
    if (scheduler.Now() > options.max_sim_time) {
      result.error = "simulation exceeded max_sim_time";
      return result;
    }
  }

  const uint64_t window_bytes = network.TotalBytesSent() - window_start_bytes;

  // Agreement: honest nodes' ordered logs must be prefix-compatible.
  result.agreement_ok = true;
  const std::vector<OrderLogEntry>* longest = nullptr;
  for (NodeId id = 0; id < n; ++id) {
    if (network.IsCrashed(id)) {
      continue;
    }
    if (longest == nullptr || order_logs[id].size() > longest->size()) {
      longest = &order_logs[id];
    }
  }
  for (NodeId id = 0; id < n && result.agreement_ok; ++id) {
    if (network.IsCrashed(id) || &order_logs[id] == longest) {
      continue;
    }
    const auto& log = order_logs[id];
    for (size_t i = 0; i < log.size(); ++i) {
      if (!(log[i] == (*longest)[i])) {
        result.agreement_ok = false;
        result.error = "total-order divergence at node " + std::to_string(id) + " position " +
                       std::to_string(i);
        break;
      }
    }
    result.ordered_vertices_checked += log.size();
  }
  if (longest != nullptr) {
    result.ordered_vertices = longest->size();
  }

  result.ok = result.agreement_ok;
  result.measure_seconds = ToSeconds(window_end - window_start);
  if (result.measure_seconds > 0) {
    result.throughput_ktps =
        static_cast<double>(committed_txs) / result.measure_seconds / 1000.0;
    result.mean_node_uplink_gbps = static_cast<double>(window_bytes) * 8.0 /
                                   result.measure_seconds / 1e9 / static_cast<double>(n);
  }
  result.committed_txs = committed_txs;
  result.mean_latency_ms = latency_stats.Mean();
  result.p50_latency_ms = latency_stats.Percentile(50);
  result.p95_latency_ms = latency_stats.Percentile(95);
  result.anchors_committed = nodes[ref]->committer().AnchorsCommitted();
  result.anchors_skipped = nodes[ref]->committer().AnchorsSkipped();
  result.last_committed_round = nodes[ref]->LastCommittedRound();
  for (uint32_t id = 0; id < n; ++id) {
    result.sync += nodes[id]->sync_stats();
  }
  result.total_gbytes_sent = static_cast<double>(network.TotalBytesSent()) / 1e9;
  result.events_processed = scheduler.EventsProcessed();
  result.sim_time_seconds = ToSeconds(scheduler.Now());
  return result;
}

}  // namespace clandag
