// tcp_ingress_n4: the same AppNode + ingress stack as sim_ingress_heal_n4,
// over real localhost TCP: four nodes, one event-loop thread each, no
// verify workers, a full mesh of 12 connections. The node has no client
// listener, so each node's clients enter in-process on its own loop thread
// (the load generator opens no connections). 16k requests/s open loop, well
// below the knee: the only workload where sockets, signature checks and real
// threads do the work, and where latency is wall time.
//
// Not listed in BENCHMARK.json: the cluster keeps about 3.6 of 4 CPUs busy,
// so its latency follows hypervisor steal (p50 9.6 -> 13.4 ms and p99 22 ->
// 54 ms at 5-14% steal on a 4-vCPU VM), further than any allowed bound. Run
// it by name to read the TCP layers.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <thread>

#include "bench/alloc_counter.h"
#include "net/tcp_transport.h"
#include "perfbench/clients.h"
#include "perfbench/workloads.h"

namespace clandag {
namespace perfbench {

namespace {

constexpr uint32_t kNodes = 4;
constexpr TimeMicros kPump = Millis(1);
constexpr TimeMicros kLoad = Seconds(6);
constexpr TimeMicros kDrain = Seconds(3);

// Forwards to a handler installed after the transport exists (the node is
// built on top of the transport).
struct Router final : MessageHandler {
  MessageHandler* target = nullptr;
  void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
    target->OnMessage(from, type, payload);
  }
};

bool PortFree(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool bound = bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  close(fd);
  return bound;
}

// A fresh block of listen ports for every cluster, below Linux's ephemeral
// range (32768 and up), so no outbound connection of an earlier cluster can
// hold one; spread by pid so concurrent processes start apart. Returns 0
// when no free block is found.
uint16_t NextBasePort() {
  static uint32_t next = static_cast<uint32_t>(getpid()) * 16;
  for (int attempt = 0; attempt < 256; ++attempt) {
    const uint16_t base = static_cast<uint16_t>(10000 + (next++ % 2500) * 8);
    bool all_free = true;
    for (uint32_t id = 0; id < kNodes && all_free; ++id) {
      all_free = PortFree(static_cast<uint16_t>(base + id));
    }
    if (all_free) {
      return base;
    }
  }
  return 0;
}

class TcpCluster {
 public:
  TcpCluster(uint64_t seed, bool traced) : keychain_(seed, kNodes), traced_(traced) {
    load_.duration = kLoad;
    counters_.resize(kNodes);
    checkers_.resize(kNodes);
    submit_us_.resize(kNodes);
    routers_.resize(kNodes);
    for (NodeId id = 0; id < kNodes; ++id) {
      clients_.emplace_back(id, seed, load_);
    }
    // Set-up is the cluster's, not the generated client schedule's.
    const Clock::time_point start = Clock::now();
    const uint16_t base_port = NextBasePort();
    if (base_port == 0) {
      connected_ = false;
      return;
    }
    for (NodeId id = 0; id < kNodes; ++id) {
      TcpConfig tcp;
      tcp.id = id;
      tcp.num_nodes = kNodes;
      tcp.base_port = base_port;
      tcp.seed = seed;
      nets_.push_back(std::make_unique<TcpRuntime>(tcp, &routers_[id]));
      Runtime* runtime = nets_.back().get();
      if (traced) {
        counting_.push_back(std::make_unique<CountingRuntime>(runtime, &counters_[id]));
        runtime = counting_.back().get();
      }
      AppNodeCallbacks callbacks;
      callbacks.on_client_reply = [this, id](uint64_t, const ClientReplyMsg& reply) {
        clients_[id].OnReply(reply, nets_[id]->Now());
      };
      callbacks.on_ordered = [this, id](const Vertex& v) {
        checkers_[id].OnOrdered(v);
        if (id == 0 && v.block_tx_count == 0) {
          ++empty_ordered_;
        }
      };
      // Receipt gossip: posted onto every peer's loop thread.
      callbacks.on_receipt = [this, id](const ExecutionReceipt& receipt) {
        checkers_[id].OnReceipt(*apps_[id], receipt);
        for (NodeId peer = 0; peer < kNodes; ++peer) {
          if (peer != id) {
            AppNode* peer_app = apps_[peer].get();
            nets_[peer]->Post(
                [peer_app, id, receipt] { peer_app->OnExecutorReceipt(id, receipt); });
          }
        }
      };
      apps_.push_back(std::make_unique<AppNode>(*runtime, keychain_, topology_,
                                                IngressNodeOptions(kNodes),
                                                std::move(callbacks)));
      routers_[id].target = apps_.back().get();
      if (traced) {
        tracing_.push_back(std::make_unique<TracingHandler>(apps_.back().get(), &counters_[id]));
        routers_[id].target = tracing_.back().get();
      }
    }
    const Clock::time_point connect_start = Clock::now();
    for (auto& net : nets_) {
      net->Start();
    }
    for (auto& net : nets_) {
      connected_ = connected_ && net->WaitConnected(Seconds(10));
    }
    connect_ms_ = SecondsSince(connect_start) * 1e3;
    setup_s_ = SecondsSince(start);
  }

  ~TcpCluster() {
    for (auto& net : nets_) {
      net->Stop();
    }
  }

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  bool connected() const { return connected_; }
  double setup_s() const { return setup_s_; }
  double connect_ms() const { return connect_ms_; }
  const std::vector<NodeChecker>& checkers() const { return checkers_; }
  const std::vector<NodeClients>& clients() const { return clients_; }

  IngressRun Run() {
    IngressRun run;
    const bench::AllocSnapshot allocs_before = bench::ReadAllocCounter();
    run.host_before = ReadHost();
    const Clock::time_point start = Clock::now();
    for (NodeId id = 0; id < kNodes; ++id) {
      nets_[id]->Post([this, id] {
        apps_[id]->Start();
        clients_[id].Begin(nets_[id]->Now());
        Pump(id);
      });
    }
    const Clock::time_point deadline = start + std::chrono::microseconds(kLoad + kDrain);
    while (Clock::now() < deadline && resolved_.load() < kNodes) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    run.host_s = SecondsSince(start);
    stopping_.store(true);
    for (auto& net : nets_) {
      net->Stop();  // Joins the loop thread: everything below is quiescent.
    }
    run.host_after = ReadHost();
    run.allocs = bench::ReadAllocCounter().allocs - allocs_before.allocs;
    run.offered_s = ToSeconds(kLoad);
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
    for (auto& net : nets_) {
      const TransportStats s = net->Stats();
      frames_ += s.sends;
      dropped_ += s.preconnect_dropped + s.queue_dropped + s.partial_dropped;
    }
    return run;
  }

  uint64_t frames() const { return frames_; }
  uint64_t dropped() const { return dropped_; }

 private:
  // Runs on node `id`'s loop thread.
  void Pump(NodeId id) {
    if (stopping_.load(std::memory_order_relaxed)) {
      return;
    }
    clients_[id].Pump(nets_[id]->Now(), [this, id](const Bytes& frame) {
      if (traced_) {
        const Clock::time_point start = Clock::now();
        apps_[id]->SubmitClientRequest(frame);
        submit_us_[id].push_back(MicrosSince(start));
      } else {
        apps_[id]->SubmitClientRequest(frame);
      }
    });
    if (clients_[id].Resolved()) {
      resolved_.fetch_add(1);
      return;
    }
    nets_[id]->Schedule(kPump, [this, id] { Pump(id); });
  }

  IngressLoad load_;
  Keychain keychain_;
  ClanTopology topology_ = ClanTopology::Full(kNodes);
  bool traced_;
  std::vector<FamilyCounters> counters_;
  std::vector<NodeChecker> checkers_;
  std::vector<std::vector<double>> submit_us_;
  std::vector<NodeClients> clients_;
  std::vector<Router> routers_;
  // Destroyed in reverse: nodes first, then probes, then transports (whose
  // loops are stopped by then).
  std::vector<std::unique_ptr<TcpRuntime>> nets_;
  std::vector<std::unique_ptr<CountingRuntime>> counting_;
  std::vector<std::unique_ptr<AppNode>> apps_;
  std::vector<std::unique_ptr<TracingHandler>> tracing_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint32_t> resolved_{0};
  uint64_t empty_ordered_ = 0;
  bool connected_ = true;
  double setup_s_ = 0;
  double connect_ms_ = 0;
  uint64_t frames_ = 0;
  uint64_t dropped_ = 0;
};

struct TcpRep {
  IngressRun run;
  double connect_ms = 0;
  uint64_t frames = 0;
  uint64_t dropped = 0;
};

TcpRep RunRep(Report& report, uint64_t seed, bool traced) {
  TcpRep rep;
  TcpCluster cluster(seed, traced);
  if (!cluster.connected()) {
    report.Fail("tcp_ingress_n4: the mesh did not connect");
    rep.run.ok = false;
    return rep;
  }
  rep.run = cluster.Run();
  rep.run.ok =
      CheckOutputs(report, cluster.checkers(), cluster.clients(), "tcp_ingress_n4");
  rep.connect_ms = cluster.connect_ms();
  rep.frames = cluster.frames();
  rep.dropped = cluster.dropped();
  return rep;
}

}  // namespace

Report RunTcpIngress(const Args& args) {
  Report report;
  if (args.trace) {
    // Untraced, traced, untraced again: the overhead compares the traced run
    // with both untraced runs pooled, so drift in host load cancels.
    const TcpRep plain = RunRep(report, args.seed, false);
    const TcpRep traced = RunRep(report, args.seed, true);
    const TcpRep plain_again = RunRep(report, args.seed, false);
    report.attempted = plain.run.attempted + traced.run.attempted + plain_again.run.attempted;
    report.failed = plain.run.Failed() + traced.run.Failed() + plain_again.run.Failed();
    const double vertices = static_cast<double>(traced.run.ordered);
    AddIngressLayers(report, traced.run, traced.run.host_s);
    AddNetMetrics(report, traced.frames, traced.run.counters.send_us, traced.dropped,
                  traced.connect_ms, vertices);
    std::vector<double> plain_lat = plain.run.latencies_ms;
    plain_lat.insert(plain_lat.end(), plain_again.run.latencies_ms.begin(),
                     plain_again.run.latencies_ms.end());
    std::vector<double> traced_lat = traced.run.latencies_ms;
    report.Add("trace.overhead_p50_ms", Percentile(traced_lat, 50) - Percentile(plain_lat, 50),
               "ms");
    report.Add("trace.overhead_goodput_rps",
               static_cast<double>(traced.run.committed) / traced.run.offered_s -
                   static_cast<double>(plain.run.committed + plain_again.run.committed) /
                       (plain.run.offered_s + plain_again.run.offered_s),
               "1/s");
    return report;
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    TcpCluster cluster(args.seed, false);
    if (!cluster.connected()) {
      report.Fail("tcp_ingress_n4: the mesh did not connect");
    }
    setups.push_back(cluster.setup_s());
  }
  const Clock::time_point budget_start = Clock::now();
  std::vector<IngressRun> runs;
  double peak_rss_mb = 0;
  do {
    runs.push_back(RunRep(report, args.seed, false).run);
    if (runs.size() == 1) {
      peak_rss_mb = PeakRssMb();
    }
  } while (SecondsSince(budget_start) + ToSeconds(kLoad + kDrain) < args.seconds);
  AddIngressEndToEnd(report, runs, "tcp_ingress_n4");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.Add("setup_s", Median(setups), "s");
  return report;
}

}  // namespace perfbench
}  // namespace clandag
