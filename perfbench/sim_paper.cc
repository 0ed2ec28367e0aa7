// sim_paper_n50: the paper's Figure 5a point near saturation, on the
// simulator (single clan of 32 of 50 nodes, 2000 x 512 B transactions per
// proposal, geo latency, cost model, certificates suppressed).
//
// The cluster is assembled here the way core/scenario.cc assembles it, so
// the probes can sit between each node and its runtime and network; every
// run is checked bit for bit against a direct RunScenario call with the
// same options. The seed samples which nodes form the clan (the paper's
// clans are random samples), so the modelled numbers differ from seed to
// seed but repeat exactly for one seed.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
#include "common/quorum.h"
#include "consensus/sailfish.h"
#include "core/metrics.h"
#include "perfbench/workloads.h"
#include "sim/network.h"
#include "smr/mempool.h"

namespace clandag {
namespace perfbench {

namespace {

// Clan samples per run: the modelled metrics are medians over them.
constexpr int kClanSamples = 5;

struct OrderLogEntry {
  Round round;
  NodeId source;
  friend bool operator==(const OrderLogEntry& a, const OrderLogEntry& b) {
    return a.round == b.round && a.source == b.source;
  }
};

ScenarioOptions PaperPoint(uint64_t seed) {
  ScenarioOptions options = bench::PaperOptions(50, DisseminationMode::kSingleClan, 2000);
  options.seed = seed;
  options.random_clans = true;
  return options;
}

// One simulated cluster, built in the constructor (the set-up being timed)
// and driven by Run().
class PaperCluster {
 public:
  PaperCluster(const ScenarioOptions& options, bool traced)
      : options_(options),
        keychain_(options.seed, options.num_nodes),
        topology_(TopologyFor(options)),
        network_(scheduler_,
                 options.topology == ScenarioOptions::Topology::kGcpGeo
                     ? LatencyMatrix::GcpGeoDistributed(options.num_nodes)
                     : LatencyMatrix::Uniform(options.num_nodes, options.uniform_latency),
                 NetworkConfig{options.uplink_bytes_per_sec}) {
    const uint32_t n = options.num_nodes;
    if (options.cost.enabled) {
      const TimeMicros per_message = options.cost.per_message;
      const double per_byte = options.cost.per_block_byte_us;
      network_.SetCpuCost([per_message, per_byte](NodeId, MsgType type, size_t wire) {
        TimeMicros cost = per_message;
        if (type == kConsBlock || type == kConsBlockPullResp) {
          cost += static_cast<TimeMicros>(per_byte * static_cast<double>(wire));
        }
        return cost;
      });
    }
    start_round_ = options.warmup_rounds;
    end_round_ = options.warmup_rounds + options.measure_rounds;
    order_logs_.resize(n);
    commit_times_.resize(n);
    counters_.resize(n);
    for (NodeId id = 0; id < n; ++id) {
      runtimes_.push_back(std::make_unique<SimRuntime>(network_, id));
      Runtime* runtime = runtimes_.back().get();
      if (traced) {
        counting_.push_back(std::make_unique<CountingRuntime>(runtime, &counters_[id]));
        runtime = counting_.back().get();
      }
      SyntheticWorkload::Options wopts;
      wopts.txs_per_proposal = options.txs_per_proposal;
      wopts.tx_size = options.tx_size;
      workloads_.push_back(std::make_unique<SyntheticWorkload>(wopts));

      SailfishConfig config;
      config.num_nodes = n;
      config.num_faults = static_cast<uint32_t>(MaxTribeFaults(n));
      config.round_timeout = options.round_timeout;
      config.dissemination.flavor = options.flavor;
      config.dissemination.multicast_cert = options.multicast_cert;
      config.dissemination.verify_signatures = options.verify_signatures;

      SailfishCallbacks callbacks;
      callbacks.on_ordered = [this, id](const Vertex& v) { OnOrdered(id, v); };
      nodes_.push_back(std::make_unique<SailfishNode>(*runtime, keychain_, topology_, config,
                                                      workloads_[id].get(),
                                                      std::move(callbacks)));
      MessageHandler* handler = nodes_.back().get();
      if (traced) {
        tracing_.push_back(std::make_unique<TracingHandler>(handler, &counters_[id]));
        handler = tracing_.back().get();
      }
      network_.RegisterHandler(id, handler);
    }
    for (auto& node : nodes_) {
      node->Start();
    }
  }

  // Drives the simulation until node 0 orders past the measurement window,
  // then fills the same ScenarioResult fields RunScenario does.
  ScenarioResult Run() {
    ScenarioResult result;
    while (!done_) {
      if (!scheduler_.Step()) {
        result.error = "simulation went idle before the measurement window completed";
        return result;
      }
      if (scheduler_.Now() > options_.max_sim_time) {
        result.error = "simulation exceeded max_sim_time";
        return result;
      }
    }
    const uint32_t n = options_.num_nodes;
    const uint64_t window_bytes = network_.TotalBytesSent() - window_start_bytes_;
    result.agreement_ok = true;
    const std::vector<OrderLogEntry>* longest = nullptr;
    for (const auto& log : order_logs_) {
      if (longest == nullptr || log.size() > longest->size()) {
        longest = &log;
      }
    }
    for (NodeId id = 0; id < n && result.agreement_ok; ++id) {
      const auto& log = order_logs_[id];
      if (&log == longest) {
        continue;
      }
      for (size_t i = 0; i < log.size(); ++i) {
        if (!(log[i] == (*longest)[i])) {
          result.agreement_ok = false;
          result.error = "total-order divergence at node " + std::to_string(id) +
                         " position " + std::to_string(i);
          break;
        }
      }
      result.ordered_vertices_checked += log.size();
    }
    result.ordered_vertices = longest->size();
    result.ok = result.agreement_ok;
    result.measure_seconds = ToSeconds(window_end_ - window_start_);
    if (result.measure_seconds > 0) {
      result.throughput_ktps =
          static_cast<double>(committed_txs_) / result.measure_seconds / 1000.0;
      result.mean_node_uplink_gbps = static_cast<double>(window_bytes) * 8.0 /
                                     result.measure_seconds / 1e9 / static_cast<double>(n);
    }
    result.committed_txs = committed_txs_;
    result.mean_latency_ms = latency_.Mean();
    result.p50_latency_ms = latency_.Percentile(50);
    result.p95_latency_ms = latency_.Percentile(95);
    result.anchors_committed = nodes_[0]->committer().AnchorsCommitted();
    result.anchors_skipped = nodes_[0]->committer().AnchorsSkipped();
    result.last_committed_round = nodes_[0]->LastCommittedRound();
    for (const auto& node : nodes_) {
      result.sync += node->sync_stats();
    }
    result.total_gbytes_sent = static_cast<double>(network_.TotalBytesSent()) / 1e9;
    result.events_processed = scheduler_.EventsProcessed();
    result.sim_time_seconds = ToSeconds(scheduler_.Now());
    return result;
  }

  const LatencyStats& latency() const { return latency_; }

  // Longest modelled gap between two commits carrying transactions at any
  // node, inside the measurement window.
  double LongestCommitGapMs() const {
    TimeMicros gap = 0;
    for (const auto& times : commit_times_) {
      for (size_t i = 1; i < times.size(); ++i) {
        gap = std::max(gap, times[i] - times[i - 1]);
      }
    }
    return static_cast<double>(gap) / 1000.0;
  }

  FamilyCounters TotalCounters() const {
    FamilyCounters total;
    for (const auto& c : counters_) {
      total += c;
    }
    return total;
  }

  uint64_t NetworkMessages() const {
    uint64_t total = 0;
    for (NodeId id = 0; id < options_.num_nodes; ++id) {
      total += network_.MessagesSentBy(id);
    }
    return total;
  }

  uint64_t EmptyOrdered() const { return empty_ordered_; }
  uint64_t OrderedAtZero() const { return order_logs_[0].size(); }

 private:
  void OnOrdered(NodeId id, const Vertex& v) {
    order_logs_[id].push_back(OrderLogEntry{v.round, v.source});
    const bool in_window = v.round >= start_round_ && v.round < end_round_;
    const TimeMicros now = scheduler_.Now();
    if (id == 0 && v.block_tx_count == 0) {
      ++empty_ordered_;
    }
    if (in_window && v.block_tx_count > 0) {
      latency_.Add(ToMillis(now - v.block_created_at), v.block_tx_count);
      commit_times_[id].push_back(now);
      if (id == 0) {
        committed_txs_ += v.block_tx_count;
      }
    }
    if (id == 0) {
      if (window_start_ < 0 && v.round >= start_round_) {
        window_start_ = now;
        window_start_bytes_ = network_.TotalBytesSent();
      }
      if (v.round >= end_round_) {
        window_end_ = now;
        done_ = true;
      }
    }
  }

  ScenarioOptions options_;
  Keychain keychain_;
  ClanTopology topology_;
  Scheduler scheduler_;
  SimNetwork network_;
  std::vector<FamilyCounters> counters_;
  std::vector<std::unique_ptr<SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<CountingRuntime>> counting_;
  std::vector<std::unique_ptr<SyntheticWorkload>> workloads_;
  std::vector<std::unique_ptr<SailfishNode>> nodes_;
  std::vector<std::unique_ptr<TracingHandler>> tracing_;
  std::vector<std::vector<OrderLogEntry>> order_logs_;
  std::vector<std::vector<TimeMicros>> commit_times_;
  LatencyStats latency_;
  Round start_round_ = 0;
  Round end_round_ = 0;
  uint64_t committed_txs_ = 0;
  uint64_t empty_ordered_ = 0;
  TimeMicros window_start_ = -1;
  TimeMicros window_end_ = -1;
  uint64_t window_start_bytes_ = 0;
  bool done_ = false;
};

// Every modelled field, compared exactly.
bool SameModelledResult(const ScenarioResult& a, const ScenarioResult& b) {
  return a.ok == b.ok && a.throughput_ktps == b.throughput_ktps &&
         a.mean_latency_ms == b.mean_latency_ms && a.p50_latency_ms == b.p50_latency_ms &&
         a.p95_latency_ms == b.p95_latency_ms && a.committed_txs == b.committed_txs &&
         a.measure_seconds == b.measure_seconds && a.anchors_committed == b.anchors_committed &&
         a.anchors_skipped == b.anchors_skipped &&
         a.last_committed_round == b.last_committed_round &&
         a.total_gbytes_sent == b.total_gbytes_sent &&
         a.mean_node_uplink_gbps == b.mean_node_uplink_gbps &&
         a.events_processed == b.events_processed && a.sim_time_seconds == b.sim_time_seconds &&
         a.agreement_ok == b.agreement_ok &&
         a.ordered_vertices_checked == b.ordered_vertices_checked &&
         a.ordered_vertices == b.ordered_vertices && a.sync.requests_sent == b.sync.requests_sent;
}

struct PaperRep {
  ScenarioResult result;
  double tail_ms = 0;
  double tail_p = 0;
  size_t samples = 0;
  double outage_ms = 0;
  double host_s = 0;
  HostSample host_before;
  HostSample host_after;
  bench::AllocSnapshot allocs;
  FamilyCounters counters;
  uint64_t network_msgs = 0;
  uint64_t empty_ordered = 0;
  uint64_t ordered_at_zero = 0;
};

PaperRep RunRep(const ScenarioOptions& options, bool traced) {
  PaperRep rep;
  PaperCluster cluster(options, traced);

  const bench::AllocSnapshot allocs_before = bench::ReadAllocCounter();
  rep.host_before = ReadHost();
  const Clock::time_point start = Clock::now();
  rep.result = cluster.Run();
  rep.host_s = SecondsSince(start);
  rep.host_after = ReadHost();
  const bench::AllocSnapshot allocs_after = bench::ReadAllocCounter();
  rep.allocs.allocs = allocs_after.allocs - allocs_before.allocs;

  const LatencyStats& latency = cluster.latency();
  rep.samples = latency.SampleCount();
  rep.tail_p = TailPercentile(rep.samples);
  rep.tail_ms = latency.Percentile(rep.tail_p);
  rep.outage_ms = cluster.LongestCommitGapMs();
  rep.counters = cluster.TotalCounters();
  rep.network_msgs = cluster.NetworkMessages();
  rep.empty_ordered = cluster.EmptyOrdered();
  rep.ordered_at_zero = cluster.OrderedAtZero();
  return rep;
}

bool CheckRep(Report& report, const PaperRep& rep, uint64_t seed) {
  if (!rep.result.ok || !rep.result.agreement_ok) {
    report.Fail("sim_paper_n50 seed " + std::to_string(seed) + ": " + rep.result.error);
    return false;
  }
  return true;
}

}  // namespace

Report RunSimPaper(const Args& args) {
  Report report;
  std::vector<uint64_t> seeds;
  for (int i = 0; i < kClanSamples; ++i) {
    seeds.push_back(args.seed * kClanSamples + static_cast<uint64_t>(i));
  }

  if (args.trace) {
    // Untraced, traced and untraced again, on one clan sample: the probes
    // must not change a single modelled number, and the traced run's extra
    // host time over the untraced mean is the tracing overhead.
    const ScenarioOptions options = PaperPoint(seeds[0]);
    const PaperRep plain = RunRep(options, false);
    const PaperRep traced = RunRep(options, true);
    const PaperRep plain_again = RunRep(options, false);
    report.attempted = 3;
    for (const PaperRep* rep : {&plain, &traced, &plain_again}) {
      report.failed += CheckRep(report, *rep, seeds[0]) ? 0 : 1;
    }
    const double plain_host_s = (plain.host_s + plain_again.host_s) / 2;
    if (!SameModelledResult(plain.result, traced.result) ||
        !SameModelledResult(plain.result, plain_again.result)) {
      report.Fail("traced sim_paper_n50 run changed the modelled result");
    }
    if (traced.counters.TotalMsgs() != traced.network_msgs) {
      report.Fail("per-family message counts (" + std::to_string(traced.counters.TotalMsgs()) +
                  ") do not sum to SimNetwork::MessagesSentBy (" +
                  std::to_string(traced.network_msgs) + ")");
    }
    const double vertices = static_cast<double>(traced.result.ordered_vertices);
    const double events = static_cast<double>(traced.result.events_processed);
    const double cpu_s = traced.host_after.cpu_s - traced.host_before.cpu_s;
    const double txs = static_cast<double>(traced.result.committed_txs);
    report.Add("sim.events", events, "count");
    report.Add("sim.events_per_host_s", events / plain_host_s, "1/s");
    report.Add("sim.events_per_vertex", events / vertices, "events/vertex");
    AddFamilyMetrics(report, traced.counters, vertices);
    AddNetMetrics(report, traced.network_msgs, traced.counters.send_us, 0, 0, vertices);
    report.Add("consensus.rounds_per_s",
               static_cast<double>(traced.result.last_committed_round) /
                   traced.result.sim_time_seconds,
               "rounds/s");
    report.Add("consensus.empty_vertex_share",
               static_cast<double>(traced.empty_ordered) /
                   static_cast<double>(traced.ordered_at_zero),
               "ratio");
    const double anchors = static_cast<double>(traced.result.anchors_committed +
                                               traced.result.anchors_skipped);
    report.Add("consensus.anchor_skip_share",
               static_cast<double>(traced.result.anchors_skipped) / anchors, "ratio");
    report.Add("sync.fetch_requests", static_cast<double>(traced.result.sync.requests_sent),
               "count");
    report.Add("mem.allocs_per_vertex", static_cast<double>(traced.allocs.allocs) / vertices,
               "allocs/vertex");
    report.Add("proc.cpu_ms_per_kreq", cpu_s * 1e3 / (txs / 1e3), "ms/kreq");
    report.Add("proc.ctx_switches_per_kreq",
               static_cast<double>(traced.host_after.ctx_switches -
                                   traced.host_before.ctx_switches) /
                   (txs / 1e3),
               "count/kreq");
    report.Add("host.steal_share", StealShare(plain.host_before, plain_again.host_after), "ratio");
    report.Add("trace.overhead_host_s", traced.host_s - plain_host_s, "s");
    return report;
  }

  // Set-up is timed on its own, before any run, several times; each sample
  // builds and starts a full 50-node cluster and tears it down.
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    const Clock::time_point start = Clock::now();
    { PaperCluster cluster(PaperPoint(seeds[static_cast<size_t>(i) % seeds.size()]), false); }
    setups.push_back(SecondsSince(start));
  }

  // The fixed work is one run per clan sample; further runs of the same
  // samples, while the time budget lasts, add host-time samples only. A
  // sample fails if its run fails a check or a repeat of it differs.
  const Clock::time_point budget_start = Clock::now();
  std::vector<PaperRep> reps;
  std::vector<bool> sample_ok;
  std::vector<double> host_s;
  double peak_rss_mb = 0;
  for (size_t i = 0; i < seeds.size() || SecondsSince(budget_start) < args.seconds; ++i) {
    const size_t sample = i % seeds.size();
    PaperRep rep = RunRep(PaperPoint(seeds[sample]), false);
    host_s.push_back(rep.host_s);
    if (i < seeds.size()) {
      sample_ok.push_back(CheckRep(report, rep, seeds[i]));
      reps.push_back(std::move(rep));
      peak_rss_mb = PeakRssMb();
    } else if (!SameModelledResult(rep.result, reps[sample].result)) {
      report.Fail("sim_paper_n50 repeat of seed " + std::to_string(seeds[sample]) +
                  " changed the modelled result");
      sample_ok[sample] = false;
    }
  }

  // The benchmark's assembly must reproduce RunScenario exactly.
  const ScenarioResult direct = RunScenario(PaperPoint(seeds[0]));
  if (!SameModelledResult(direct, reps[0].result)) {
    report.Fail("sim_paper_n50 differs from a direct RunScenario with the same options");
    sample_ok[0] = false;
  }
  report.attempted = sample_ok.size();
  report.failed = static_cast<uint64_t>(std::count(sample_ok.begin(), sample_ok.end(), false));

  std::vector<double> p50, tail, goodput, outage;
  for (const PaperRep& rep : reps) {
    p50.push_back(rep.result.p50_latency_ms);
    tail.push_back(rep.tail_ms);
    goodput.push_back(rep.result.throughput_ktps * 1e3);
    outage.push_back(rep.outage_ms);
    std::printf("info sim_paper_n50 clan_seed=%llu ktps=%.3f p50_ms=%.3f tail=p%.1f:%.3f "
                "samples=%zu events=%llu vertices=%llu host_s=%.3f\n",
                static_cast<unsigned long long>(seeds[&rep - reps.data()]),
                rep.result.throughput_ktps, rep.result.p50_latency_ms, rep.tail_p, rep.tail_ms,
                rep.samples,
                static_cast<unsigned long long>(rep.result.events_processed),
                static_cast<unsigned long long>(rep.result.ordered_vertices), rep.host_s);
  }
  report.Add("p50_ms", Median(p50), "ms");
  report.Add("tail_ms", Median(tail), "ms");
  report.Add("goodput_rps", Median(goodput), "1/s");
  report.Add("served_share",
             1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted),
             "ratio");
  report.Add("host_s", Median(host_s), "s");
  report.Add("outage_ms", Median(outage), "ms");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.Add("setup_s", Median(setups), "s");
  std::printf("info sim_paper_n50 steal_share=%.4f host_s:",
              StealShare(reps.front().host_before, reps.back().host_after));
  for (double h : host_s) {
    std::printf(" %.3f", h);
  }
  std::printf(" setup_s:");
  for (double s : setups) {
    std::printf(" %.5f", s);
  }
  std::printf("\n");
  return report;
}

}  // namespace perfbench
}  // namespace clandag
