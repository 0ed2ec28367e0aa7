#include "core/cluster.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/quorum.h"
#include "net/loopback_ports.h"

namespace clandag {
namespace {

// Every cluster derives its keys from this one system seed.
constexpr uint64_t kKeySeed = 17;

}  // namespace

std::string TempDir() {
  const char* tmp = std::getenv("TMPDIR");
  return tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
}

class Cluster::Router final : public MessageHandler {
 public:
  void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
    if (app != nullptr) {
      app->OnMessage(from, type, payload);
    }
  }
  AppNode* app = nullptr;
};

Cluster::Cluster(Options options)
    : options_(std::move(options)),
      keychain_(kKeySeed, options_.num_nodes),
      topology_(options_.clans <= 1 ? ClanTopology::Full(options_.num_nodes)
                                    : ClanTopology::MultiClan(options_.num_nodes, options_.clans)),
      nodes_(options_.num_nodes) {
  const uint32_t n = options_.num_nodes;
  if (options_.kind == Kind::kSim) {
    scheduler_ = std::make_unique<Scheduler>();
    network_ = std::make_unique<SimNetwork>(
        *scheduler_, LatencyMatrix::Uniform(n, options_.sim_latency), NetworkConfig{1e9, 0});
  } else {
    CLANDAG_CHECK_MSG(n <= kPortBlock, "a TCP cluster must fit one loopback port block");
    if (options_.base_port == 0) {
      options_.base_port = FreeBasePort();
    }
    for (NodeId id = 0; id < n; ++id) {
      routers_.push_back(std::make_unique<Router>());
      TcpConfig config;
      config.id = id;
      config.num_nodes = n;
      config.base_port = options_.base_port;
      tcp_.push_back(std::make_unique<TcpRuntime>(config, routers_[id].get()));
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    RemoveWalFiles(id);
    Build(id);
  }
}

Cluster::~Cluster() {
  Stop();
  for (NodeId id = 0; id < options_.num_nodes; ++id) {
    RemoveWalFiles(id);
  }
}

std::string Cluster::WalPath(NodeId id) const {
  if (options_.wal_dir.empty()) {
    return "";
  }
  // Process id and cluster address keep concurrent clusters' files apart.
  return options_.wal_dir + "/clandag_" + std::to_string(static_cast<long>(::getpid())) + "_" +
         std::to_string(reinterpret_cast<uintptr_t>(this)) + "_" + std::to_string(id) + ".wal";
}

void Cluster::RemoveWalFiles(NodeId id) const {
  const std::string wal = WalPath(id);
  if (wal.empty()) {
    return;
  }
  for (const char* suffix : {"", ".snap", ".snap.prev", ".snap.tmp"}) {
    std::remove((wal + suffix).c_str());
  }
}

void Cluster::Build(NodeId id) {
  NodeStack node;
  Runtime* base = nullptr;
  if (options_.kind == Kind::kSim) {
    node.sim = std::make_unique<SimRuntime>(*network_, id);
    base = node.sim.get();
  } else {
    base = tcp_[id].get();
  }
  node.layers = std::make_unique<RuntimeStack>(*base);
  if (options_.wrap) {
    options_.wrap(id, *node.layers);
  }

  NodeSetup setup;
  setup.options.consensus.num_nodes = options_.num_nodes;
  setup.options.consensus.num_faults = static_cast<uint32_t>(MaxTribeFaults(options_.num_nodes));
  setup.options.wal_path = WalPath(id);
  if (options_.setup) {
    options_.setup(id, setup);
  }
  if (setup.options.enable_ingress && !setup.callbacks.on_receipt) {
    setup.callbacks.on_receipt = [this, id](const ExecutionReceipt& receipt) {
      GossipReceipt(id, receipt);
    };
  }

  node.app = std::make_unique<AppNode>(node.layers->Top(), keychain_, topology_,
                                       std::move(setup.options), std::move(setup.callbacks));
  for (auto& [tx_id, data] : setup.preload) {
    node.app->SubmitTransaction(tx_id, std::move(data));
  }
  if (options_.kind == Kind::kSim) {
    network_->RegisterHandler(id, node.app.get());
  } else {
    routers_[id]->app = node.app.get();
  }
  nodes_[id] = std::move(node);
}

void Cluster::GossipReceipt(NodeId from, const ExecutionReceipt& receipt) {
  for (NodeId peer = 0; peer < options_.num_nodes; ++peer) {
    if (peer == from) {
      continue;
    }
    AppNode* app = nodes_[peer].app.get();
    if (options_.kind == Kind::kSim) {
      if (!network_->IsCrashed(peer)) {
        app->OnExecutorReceipt(from, receipt);
      }
    } else {
      tcp_[peer]->Post([app, from, receipt] { app->OnExecutorReceipt(from, receipt); });
    }
  }
}

bool Cluster::Start() {
  if (options_.kind == Kind::kSim) {
    for (NodeStack& node : nodes_) {
      node.app->Start();
    }
    return true;
  }
  for (auto& net : tcp_) {
    net->Start();
  }
  for (auto& net : tcp_) {
    if (!net->WaitConnected(Seconds(10))) {
      std::fprintf(stderr, "tcp mesh failed to connect on base port %u\n", options_.base_port);
      Stop();
      return false;
    }
  }
  for (NodeId id = 0; id < options_.num_nodes; ++id) {
    AppNode* app = nodes_[id].app.get();
    tcp_[id]->Post([app] { app->Start(); });
  }
  return true;
}

void Cluster::Stop() {
  for (auto& net : tcp_) {
    net->Stop();
  }
}

void Cluster::Crash(NodeId id) {
  CLANDAG_CHECK(options_.kind == Kind::kSim);
  network_->SetCrashed(id, true);
}

AppNode& Cluster::Restart(NodeId id) {
  CLANDAG_CHECK(options_.kind == Kind::kSim);
  zombies_.push_back(std::move(nodes_[id]));
  Build(id);
  network_->SetCrashed(id, false);
  nodes_[id].app->Start();
  return *nodes_[id].app;
}

}  // namespace clandag
