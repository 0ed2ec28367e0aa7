// sim_ingress_heal_n4: the AppNode + ingress stack on the simulator, under a
// partition that heals. Four nodes, 5 ms uniform latency, certificates
// multicast and signatures verified; 16k requests/s offered open loop for
// 10 s. For 3 s, starting 3 s in plus a seeded offset of up to 250 ms, every
// message to and from node 3 is dropped (and so are the execution receipts
// it would exchange), then the network heals. The offset places the cut at a
// different point of the round schedule for each seed.
//
// Ingress refusing and retrying, the consensus timeout/no-vote path and sync
// catch-up do the work here; the run is fully deterministic for a seed.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/alloc_counter.h"
#include "common/rng.h"
#include "perfbench/clients.h"
#include "perfbench/workloads.h"
#include "sim/network.h"

namespace clandag {
namespace perfbench {

namespace {

constexpr uint32_t kNodes = 4;
constexpr NodeId kCutNode = 3;
constexpr TimeMicros kLoadStart = Millis(1);
constexpr TimeMicros kCutEarliest = Seconds(3);
constexpr TimeMicros kCutOffsetRange = Millis(20);
constexpr TimeMicros kCutLength = Seconds(3);
constexpr TimeMicros kLatency = Millis(5);
constexpr TimeMicros kPump = Millis(1);
// After the offered window: time for in-flight requests to be answered.
constexpr TimeMicros kDrain = Seconds(5);

class HealCluster {
 public:
  HealCluster(uint64_t seed, bool traced)
      : keychain_(seed, kNodes),
        topology_(ClanTopology::Full(kNodes)),
        network_(scheduler_, LatencyMatrix::Uniform(kNodes, kLatency), NetworkConfig{1e9, 0}),
        traced_(traced) {
    DetRng rng(seed);
    cut_start_ = kCutEarliest + static_cast<TimeMicros>(rng.NextBelow(kCutOffsetRange));
    cut_end_ = cut_start_ + kCutLength;
    network_.SetAdversary([this](NodeId from, NodeId to, MsgType, TimeMicros now) {
      if (!Cut(from, to, now)) {
        return TimeMicros{0};
      }
      ++dropped_;
      return kDropMessage;
    });
    counters_.resize(kNodes);
    checkers_.resize(kNodes);
    submit_us_.resize(kNodes);
    for (NodeId id = 0; id < kNodes; ++id) {
      clients_.emplace_back(id, seed, load_);
    }
    // Set-up is the cluster's, not the generated client schedule's.
    const Clock::time_point setup_start = Clock::now();
    for (NodeId id = 0; id < kNodes; ++id) {
      runtimes_.push_back(std::make_unique<SimRuntime>(network_, id));
      Runtime* runtime = runtimes_.back().get();
      if (traced) {
        counting_.push_back(std::make_unique<CountingRuntime>(runtime, &counters_[id]));
        runtime = counting_.back().get();
      }
      AppNodeCallbacks callbacks;
      callbacks.on_client_reply = [this, id](uint64_t, const ClientReplyMsg& reply) {
        clients_[id].OnReply(reply, scheduler_.Now());
      };
      callbacks.on_ordered = [this, id](const Vertex& v) {
        checkers_[id].OnOrdered(v);
        if (id == 0 && v.block_tx_count == 0) {
          ++empty_ordered_;
        }
        if (id == kCutNode && catchup_at_ < 0 && frontier_ >= 0 &&
            static_cast<int64_t>(v.round) >= frontier_) {
          catchup_at_ = scheduler_.Now();
        }
      };
      // Every node executes every block (one clan), so each receipt feeds
      // every peer's reply quorum, one network latency later, unless the
      // partition separates the two.
      callbacks.on_receipt = [this, id](const ExecutionReceipt& receipt) {
        checkers_[id].OnReceipt(*apps_[id], receipt);
        const TimeMicros now = scheduler_.Now();
        for (NodeId peer = 0; peer < kNodes; ++peer) {
          if (peer != id && !Cut(id, peer, now)) {
            scheduler_.ScheduleCallbackAt(now + kLatency, [this, peer, id, receipt] {
              apps_[peer]->OnExecutorReceipt(id, receipt);
            });
          }
        }
      };
      apps_.push_back(std::make_unique<AppNode>(*runtime, keychain_, topology_,
                                                IngressNodeOptions(kNodes),
                                                std::move(callbacks)));
      MessageHandler* handler = apps_.back().get();
      if (traced) {
        tracing_.push_back(std::make_unique<TracingHandler>(handler, &counters_[id]));
        handler = tracing_.back().get();
      }
      network_.RegisterHandler(id, handler);
    }
    for (auto& app : apps_) {
      app->Start();
    }
    setup_s_ = SecondsSince(setup_start);
  }

  double setup_s() const { return setup_s_; }

  IngressRun Run() {
    IngressRun run;
    for (NodeId id = 0; id < kNodes; ++id) {
      clients_[id].Begin(kLoadStart);
      scheduler_.ScheduleCallbackAt(kLoadStart, [this, id] { Pump(id); });
    }
    // Node 0's ordered frontier at the heal: node 3 has caught up once it
    // orders a vertex of that round.
    scheduler_.ScheduleCallbackAt(cut_end_, [this] {
      frontier_ = apps_[0]->consensus().LastCommittedRound();
    });
    const TimeMicros deadline = kLoadStart + load_.duration + kDrain;
    const bench::AllocSnapshot allocs_before = bench::ReadAllocCounter();
    run.host_before = ReadHost();
    const Clock::time_point start = Clock::now();
    while (scheduler_.Now() < deadline && !AllResolved()) {
      scheduler_.RunUntil(scheduler_.Now() + Millis(10));
    }
    run.host_s = SecondsSince(start);
    run.host_after = ReadHost();
    run.allocs = bench::ReadAllocCounter().allocs - allocs_before.allocs;
    run.offered_s = ToSeconds(load_.duration);
    run.empty_ordered = empty_ordered_;
    for (NodeId id = 0; id < kNodes; ++id) {
      run.counters += counters_[id];
      run.submit_us.insert(run.submit_us.end(), submit_us_[id].begin(), submit_us_[id].end());
    }
    std::vector<AppNode*> nodes;
    for (auto& app : apps_) {
      nodes.push_back(app.get());
    }
    run.Collect(clients_, nodes);
    return run;
  }

  uint64_t NetworkMessages() const {
    uint64_t total = 0;
    for (NodeId id = 0; id < kNodes; ++id) {
      total += network_.MessagesSentBy(id);
    }
    return total;
  }
  uint64_t Events() const { return scheduler_.EventsProcessed(); }
  uint64_t Dropped() const { return dropped_; }
  double SimSeconds() const { return ToSeconds(scheduler_.Now()); }
  double CatchupMs() const {
    return catchup_at_ < 0 ? -1.0 : static_cast<double>(catchup_at_ - cut_end_) / 1000.0;
  }
  const std::vector<NodeChecker>& checkers() const { return checkers_; }
  const std::vector<NodeClients>& clients() const { return clients_; }

 private:
  bool Cut(NodeId from, NodeId to, TimeMicros now) const {
    return now >= cut_start_ && now < cut_end_ && from != to &&
           (from == kCutNode || to == kCutNode);
  }

  void Pump(NodeId id) {
    clients_[id].Pump(scheduler_.Now(), [this, id](const Bytes& frame) {
      if (traced_) {
        const Clock::time_point start = Clock::now();
        apps_[id]->SubmitClientRequest(frame);
        submit_us_[id].push_back(MicrosSince(start));
      } else {
        apps_[id]->SubmitClientRequest(frame);
      }
    });
    if (!clients_[id].Resolved()) {
      scheduler_.ScheduleCallbackAt(scheduler_.Now() + kPump, [this, id] { Pump(id); });
    }
  }

  bool AllResolved() const {
    return std::all_of(clients_.begin(), clients_.end(),
                       [](const NodeClients& c) { return c.Resolved(); });
  }

  IngressLoad load_;
  Keychain keychain_;
  ClanTopology topology_;
  Scheduler scheduler_;
  SimNetwork network_;
  bool traced_;
  std::vector<FamilyCounters> counters_;
  std::vector<NodeChecker> checkers_;
  std::vector<std::vector<double>> submit_us_;
  std::vector<NodeClients> clients_;
  std::vector<std::unique_ptr<SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<CountingRuntime>> counting_;
  std::vector<std::unique_ptr<AppNode>> apps_;
  std::vector<std::unique_ptr<TracingHandler>> tracing_;
  uint64_t empty_ordered_ = 0;
  uint64_t dropped_ = 0;  // Messages the cut dropped.
  TimeMicros cut_start_ = 0;
  TimeMicros cut_end_ = 0;
  int64_t frontier_ = -1;
  TimeMicros catchup_at_ = -1;
  double setup_s_ = 0;
};

struct HealRep {
  IngressRun run;
  uint64_t network_msgs = 0;
  uint64_t dropped = 0;
  uint64_t events = 0;
  double sim_s = 0;
  double catchup_ms = 0;
};

HealRep RunRep(Report& report, uint64_t seed, bool traced) {
  HealRep rep;
  HealCluster cluster(seed, traced);
  rep.run = cluster.Run();
  rep.run.ok =
      CheckOutputs(report, cluster.checkers(), cluster.clients(), "sim_ingress_heal_n4");
  if (cluster.CatchupMs() < 0) {
    report.Fail("sim_ingress_heal_n4: node 3 never caught up after the heal");
    rep.run.ok = false;
  }
  rep.network_msgs = cluster.NetworkMessages();
  rep.dropped = cluster.Dropped();
  rep.events = cluster.Events();
  rep.sim_s = cluster.SimSeconds();
  rep.catchup_ms = cluster.CatchupMs();
  return rep;
}

// The modelled outcome of a run: every field must repeat exactly for a seed.
bool SameOutcome(const HealRep& a, const HealRep& b) {
  return a.events == b.events && a.run.committed == b.run.committed &&
         a.run.failed == b.run.failed && a.run.latencies_ms == b.run.latencies_ms &&
         a.run.outage_ms == b.run.outage_ms && a.catchup_ms == b.catchup_ms &&
         a.run.ordered == b.run.ordered;
}

}  // namespace

Report RunSimIngressHeal(const Args& args) {
  Report report;
  if (args.trace) {
    // Untraced, traced, untraced again: see RunSimPaper.
    const HealRep plain = RunRep(report, args.seed, false);
    const HealRep traced = RunRep(report, args.seed, true);
    const HealRep plain_again = RunRep(report, args.seed, false);
    const double plain_host_s = (plain.run.host_s + plain_again.run.host_s) / 2;
    report.attempted = plain.run.attempted + traced.run.attempted + plain_again.run.attempted;
    report.failed = plain.run.Failed() + traced.run.Failed() + plain_again.run.Failed();
    if (!SameOutcome(plain, traced) || !SameOutcome(plain, plain_again)) {
      report.Fail("traced sim_ingress_heal_n4 run changed the modelled outcome");
    }
    if (traced.run.counters.TotalMsgs() != traced.network_msgs) {
      report.Fail("per-family message counts (" +
                  std::to_string(traced.run.counters.TotalMsgs()) +
                  ") do not sum to SimNetwork::MessagesSentBy (" +
                  std::to_string(traced.network_msgs) + ")");
    }
    const double events = static_cast<double>(traced.events);
    report.Add("sim.events", events, "count");
    report.Add("sim.events_per_host_s", events / plain_host_s, "1/s");
    report.Add("sim.events_per_vertex", events / static_cast<double>(traced.run.ordered),
               "events/vertex");
    AddIngressLayers(report, traced.run, traced.sim_s);
    AddNetMetrics(report, traced.network_msgs, traced.run.counters.send_us, traced.dropped, 0,
                  static_cast<double>(traced.run.ordered));
    report.Add("sync.catchup_ms", traced.catchup_ms, "ms");
    report.Add("trace.overhead_host_s", traced.run.host_s - plain_host_s, "s");
    return report;
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    HealCluster cluster(args.seed, false);
    setups.push_back(cluster.setup_s());
  }
  // The fixed work is one seeded run; repeats while the time budget lasts
  // add host-time samples and must reproduce it exactly.
  const Clock::time_point budget_start = Clock::now();
  std::vector<HealRep> reps;
  double peak_rss_mb = 0;
  do {
    reps.push_back(RunRep(report, args.seed, false));
    if (reps.size() == 1) {
      peak_rss_mb = PeakRssMb();
    }
    if (!SameOutcome(reps.front(), reps.back())) {
      report.Fail("sim_ingress_heal_n4: a repeat of the same seed changed the outcome");
      reps.front().run.ok = false;
    }
    if (!reps.back().run.ok) {
      reps.front().run.ok = false;
    }
  } while (SecondsSince(budget_start) < args.seconds);

  // The modelled metrics come from the first run (every repeat reproduces
  // it); host_s is the median over all of them.
  std::vector<double> host_s;
  for (const HealRep& rep : reps) {
    host_s.push_back(rep.run.host_s);
  }
  std::vector<IngressRun> first{reps.front().run};
  first[0].host_s = Median(host_s);
  AddIngressEndToEnd(report, first, "sim_ingress_heal_n4");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.Add("setup_s", Median(setups), "s");
  std::printf("info sim_ingress_heal_n4 host_runs=%zu events=%llu catchup_ms=%.3f\n",
              reps.size(), static_cast<unsigned long long>(reps.front().events),
              reps.front().catchup_ms);
  return report;
}

}  // namespace perfbench
}  // namespace clandag
