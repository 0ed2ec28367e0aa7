// Ingress saturation sweep (DESIGN.md §11): offered load vs goodput, p50/p99
// end-to-end client latency, and heap allocations per committed request, for
// a 4-node cluster running the full ingress pipeline (admission, batching,
// dedup, reply quorum) over BOTH runtimes:
//
//   sim  — deterministic discrete-event simulator (bit-reproducible);
//   tcp  — real localhost sockets, one event-loop thread per node.
//
// Each point drives every node with an independent open-loop generator
// (Poisson arrivals, zipf-skewed clients, bursts, dup probes, retrying
// clients); open loop means arrivals never slow down when the system does,
// which is what exposes the saturation knee: goodput flattens while p99 and
// the reject counters climb.
//
//   ./bench_fig6_ingress [--quick] [--out BENCH_ingress_saturation.json]
//
// Exits 1 if goodput at the lowest offered-load point of either runtime is
// zero (the CI ingress-smoke gate).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
#include "core/cluster.h"
#include "ingress/load_gen.h"

using namespace clandag;
using namespace clandag::bench;

namespace {

constexpr uint32_t kNodes = 4;

struct SweepConfig {
  std::vector<double> per_node_tps;  // Offered load points, per node.
  TimeMicros duration = Seconds(10); // Measurement window per point.
  TimeMicros tcp_duration = Seconds(4);
  uint32_t clients_per_node = 100000;
  TimeMicros pump = Millis(5);       // Load-generator poll interval.
};

struct IngressPoint {
  std::string runtime;   // "sim" | "tcp"
  double offered_tps = 0;  // Cluster-wide (per-node x nodes).
  double duration_s = 0;
  uint64_t fresh_sent = 0;
  uint64_t committed = 0;
  uint64_t rejected = 0;   // Rate + capacity.
  uint64_t expired = 0;
  uint64_t duplicate_replies = 0;
  double sent_tps = 0;  // Measured first-send rate (offered + bursts + probes).
  double goodput_tps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double allocs_per_commit = 0;
};

LoadGenOptions MakeLoadGen(NodeId id, double per_node_tps, uint32_t clients) {
  LoadGenOptions options;
  options.seed = 0x5eed + id;
  options.num_clients = clients;
  options.client_id_base = static_cast<uint32_t>(id) << 24;  // Disjoint id spaces.
  options.offered_load_tps = per_node_tps;
  options.payload_bytes = 256;
  return options;
}

// Both runtimes run the same four nodes with the same ingress tuning.
Cluster::Options ClusterOptions(Cluster::Kind kind) {
  Cluster::Options options;
  options.kind = kind;
  options.num_nodes = kNodes;
  options.sim_latency = Millis(5);
  return options;
}

void ConfigureNode(AppNodeOptions& options) {
  options.consensus.round_timeout = Seconds(1);
  options.enable_ingress = true;
  options.ingress.batcher.max_batch_wait = Millis(20);
  // One 16 KiB batch per round caps per-node goodput at a few thousand tps,
  // which puts the saturation knee inside the sweep's load points: past it,
  // the closed-batch queue fills and admission answers with capacity rejects
  // instead of queuing (the bounded-memory contract under overload).
  options.ingress.batcher.max_batch_bytes = 16 << 10;
  options.ingress.admission.global_byte_budget = 2 << 20;
}

double PercentileMs(std::vector<TimeMicros>& samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(samples.size() - 1));
  return static_cast<double>(samples[idx]) / 1000.0;
}

void Finalize(IngressPoint& point, const std::vector<std::unique_ptr<OpenLoopLoadGen>>& gens,
              uint64_t alloc_delta) {
  std::vector<TimeMicros> latencies;
  for (const auto& gen : gens) {
    const LoadGenStats& s = gen->stats();
    point.fresh_sent += s.fresh_sent;
    point.committed += s.committed;
    point.rejected += s.rate_rejected + s.capacity_rejected;
    point.expired += s.expired;
    point.duplicate_replies += s.duplicate_replies;
    latencies.insert(latencies.end(), gen->LatencySamples().begin(),
                     gen->LatencySamples().end());
  }
  // Bursts and dup probes ride on top of the nominal Poisson rate, so the
  // measured send rate exceeds offered_tps; report it so the curve's x-axis
  // can use either.
  point.sent_tps = static_cast<double>(point.fresh_sent) / point.duration_s;
  point.goodput_tps = static_cast<double>(point.committed) / point.duration_s;
  point.p50_ms = PercentileMs(latencies, 0.50);
  point.p99_ms = PercentileMs(latencies, 0.99);
  point.allocs_per_commit =
      point.committed > 0 ? static_cast<double>(alloc_delta) / static_cast<double>(point.committed)
                          : 0;
}

// --- Simulator runtime ------------------------------------------------------

IngressPoint RunSimPoint(double per_node_tps, const SweepConfig& config) {
  IngressPoint point;
  point.runtime = "sim";
  point.offered_tps = per_node_tps * kNodes;
  point.duration_s = static_cast<double>(config.duration) / 1e6;

  std::vector<std::unique_ptr<OpenLoopLoadGen>> gens;
  for (NodeId id = 0; id < kNodes; ++id) {
    gens.push_back(std::make_unique<OpenLoopLoadGen>(
        MakeLoadGen(id, per_node_tps, config.clients_per_node), Millis(1)));
  }
  std::unique_ptr<Cluster> cluster;
  Cluster::Options options = ClusterOptions(Cluster::Kind::kSim);
  options.setup = [&gens, &cluster](NodeId id, Cluster::NodeSetup& setup) {
    ConfigureNode(setup.options);
    setup.callbacks.on_client_reply = [&gens, &cluster, id](uint64_t, const ClientReplyMsg& reply) {
      gens[id]->OnReply(reply, cluster->scheduler().Now());
    };
  };
  cluster = std::make_unique<Cluster>(std::move(options));
  Scheduler& scheduler = cluster->scheduler();
  cluster->Start();

  // Per-node pump: poll the generator, feed every due frame into ingress.
  std::function<void(NodeId)> pump = [&](NodeId id) {
    for (const Bytes& frame : gens[id]->Poll(scheduler.Now())) {
      cluster->app(id).SubmitClientRequest(frame);
    }
    if (scheduler.Now() < config.duration) {
      scheduler.ScheduleCallbackAt(scheduler.Now() + config.pump, [&pump, id] { pump(id); });
    }
  };
  for (NodeId id = 0; id < kNodes; ++id) {
    scheduler.ScheduleCallbackAt(Millis(1), [&pump, id] { pump(id); });
  }

  const AllocSnapshot before = ReadAllocCounter();
  scheduler.RunUntil(config.duration);
  const AllocSnapshot after = ReadAllocCounter();

  Finalize(point, gens, after.allocs - before.allocs);
  return point;
}

// --- TCP runtime ------------------------------------------------------------

// One node's client side, confined to that node's event-loop thread: the
// generator is polled via TcpRuntime::Schedule and fed replies from
// on_client_reply, so no locking is needed around OpenLoopLoadGen.
struct TcpClientPump {
  TcpRuntime* net = nullptr;
  AppNode* app = nullptr;
  std::unique_ptr<OpenLoopLoadGen> gen;
  TimeMicros interval = Millis(5);
  std::shared_ptr<std::atomic<bool>> running = std::make_shared<std::atomic<bool>>(true);

  void Tick() {
    if (!running->load(std::memory_order_relaxed)) {
      return;
    }
    for (const Bytes& frame : gen->Poll(net->Now())) {
      app->SubmitClientRequest(frame);
    }
    auto alive = running;
    net->Schedule(interval, [this, alive] {
      if (alive->load(std::memory_order_relaxed)) {
        Tick();
      }
    });
  }
};

IngressPoint RunTcpPoint(double per_node_tps, const SweepConfig& config) {
  IngressPoint point;
  point.runtime = "tcp";
  point.offered_tps = per_node_tps * kNodes;
  point.duration_s = static_cast<double>(config.tcp_duration) / 1e6;

  std::vector<TcpClientPump> pumps(kNodes);
  std::unique_ptr<Cluster> cluster;
  Cluster::Options options = ClusterOptions(Cluster::Kind::kTcp);
  options.setup = [&pumps, &cluster](NodeId id, Cluster::NodeSetup& setup) {
    ConfigureNode(setup.options);
    setup.callbacks.on_client_reply = [&pumps, &cluster, id](uint64_t, const ClientReplyMsg& reply) {
      if (pumps[id].gen != nullptr) {
        pumps[id].gen->OnReply(reply, cluster->tcp(id).Now());  // On node id's loop.
      }
    };
  };
  cluster = std::make_unique<Cluster>(std::move(options));
  if (!cluster->Start()) {
    return point;  // Zero goodput; the smoke gate reports it.
  }

  const AllocSnapshot before = ReadAllocCounter();
  for (NodeId id = 0; id < kNodes; ++id) {
    TcpClientPump* pump = &pumps[id];
    pump->net = &cluster->tcp(id);
    pump->app = &cluster->app(id);
    pump->net->Post([pump, id, per_node_tps, &config] {
      pump->gen = std::make_unique<OpenLoopLoadGen>(
          MakeLoadGen(id, per_node_tps, config.clients_per_node), pump->net->Now());
      pump->Tick();
    });
  }

  std::this_thread::sleep_for(std::chrono::microseconds(config.tcp_duration));

  for (auto& pump : pumps) {
    pump.running->store(false, std::memory_order_relaxed);
  }
  cluster->Stop();  // Joins the loop threads; generator stats are now quiescent.
  const AllocSnapshot after = ReadAllocCounter();

  std::vector<std::unique_ptr<OpenLoopLoadGen>> gens;
  for (auto& pump : pumps) {
    if (pump.gen != nullptr) {
      gens.push_back(std::move(pump.gen));
    }
  }
  Finalize(point, gens, after.allocs - before.allocs);
  return point;
}

// --- Sweep ------------------------------------------------------------------

void PrintPoint(const IngressPoint& point) {
  std::printf("%-4s %12.0f %12.0f %10.1f %10.1f %12llu %10llu %9llu %14.0f\n",
              point.runtime.c_str(), point.offered_tps, point.goodput_tps, point.p50_ms,
              point.p99_ms, static_cast<unsigned long long>(point.committed),
              static_cast<unsigned long long>(point.rejected),
              static_cast<unsigned long long>(point.expired), point.allocs_per_commit);
  std::fflush(stdout);
}

std::string PointJson(const IngressPoint& point) {
  JsonObject o;
  o.Field("runtime", point.runtime)
      .Field("offered_tps", point.offered_tps)
      .Field("sent_tps", point.sent_tps)
      .Field("duration_s", point.duration_s)
      .Field("goodput_tps", point.goodput_tps)
      .Field("p50_ms", point.p50_ms)
      .Field("p99_ms", point.p99_ms)
      .Field("fresh_sent", point.fresh_sent)
      .Field("committed", point.committed)
      .Field("rejected", point.rejected)
      .Field("expired", point.expired)
      .Field("duplicate_replies", point.duplicate_replies)
      .Field("allocs_per_commit", point.allocs_per_commit);
  return o.Str();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const char* out_path = ArgValue(argc, argv, "--out");

  SweepConfig config;
  config.per_node_tps = {500, 1000, 2000, 4000, 8000};  // >= 5 points (ISSUE).
  if (quick) {
    config.duration = Seconds(2);
    config.tcp_duration = Millis(1500);
    config.clients_per_node = 20000;
  }

  std::printf("== Ingress saturation: 4 nodes, open-loop zipf clients, %u per node ==\n",
              config.clients_per_node);
  std::printf("%-4s %12s %12s %10s %10s %12s %10s %9s %14s\n", "rt", "offered", "goodput",
              "p50 ms", "p99 ms", "committed", "rejected", "expired", "allocs/commit");

  std::vector<IngressPoint> points;
  for (double tps : config.per_node_tps) {
    points.push_back(RunSimPoint(tps, config));
    PrintPoint(points.back());
  }
  for (double tps : config.per_node_tps) {
    points.push_back(RunTcpPoint(tps, config));  // Each point probes fresh ports.
    PrintPoint(points.back());
  }

  if (out_path != nullptr) {
    std::vector<std::string> rows;
    rows.reserve(points.size());
    for (const IngressPoint& point : points) {
      rows.push_back(PointJson(point));
    }
    if (!WriteJsonArrayFile(out_path, rows)) {
      return 1;
    }
  }

  // Smoke gate: the lowest offered-load point of each runtime must commit.
  bool ok = true;
  for (const char* rt : {"sim", "tcp"}) {
    const IngressPoint* lowest = nullptr;
    for (const IngressPoint& point : points) {
      if (point.runtime == rt && (lowest == nullptr || point.offered_tps < lowest->offered_tps)) {
        lowest = &point;
      }
    }
    if (lowest == nullptr || lowest->goodput_tps <= 0) {
      std::fprintf(stderr, "FAIL: zero goodput at lowest offered load (%s runtime)\n", rt);
      ok = false;
    }
  }
  std::printf("\nexpected shape: goodput tracks offered load until the batcher/consensus\n"
              "pipeline saturates, then flattens while p99 and rejections climb; the\n"
              "admission byte budget keeps memory bounded past the knee.\n");
  return ok ? 0 : 1;
}
