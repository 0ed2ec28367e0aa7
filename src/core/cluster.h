// Cluster: the one place an AppNode cluster is assembled, over the simulator
// (kSim: Scheduler + SimNetwork + a SimRuntime per node, driven through
// scheduler()) or over loopback TCP (kTcp: a TcpRuntime and its event-loop
// thread per node).
//
// The builder owns the Keychain and ClanTopology, consensus.{num_nodes,
// num_faults} (f = MaxTribeFaults(n)), the per-node WAL files, routing from a
// transport to the node built after it, construction and Start() in id
// order, and crash/restart with the old stack kept as a zombie (its scheduled
// callbacks stay valid). Harnesses differ only through two hooks: `setup`
// fills a node's options and callbacks on every build and rebuild and may
// preload transactions; `wrap` stacks Runtime decorators (fault injection,
// Byzantine behaviour) between the transport and the node.
//
// Receipt gossip: a node with enable_ingress and no on_receipt of its own
// feeds its execution receipts to every live peer's front end (a direct call
// on kSim, a Post onto the peer's loop on kTcp), the role kClientReply gossip
// plays in a deployment. A caller that sets on_receipt routes receipts itself.
//
// Threading: kSim is driven from one thread. On kTcp each AppNode belongs to
// its loop thread once Start() returns: reach it through tcp(id).Post(), and
// read app(id) from the driver thread only after Stop().

#ifndef CLANDAG_CORE_CLUSTER_H_
#define CLANDAG_CORE_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/app_node.h"
#include "net/tcp_transport.h"
#include "sim/network.h"

namespace clandag {

// Runtime decorators stacked over one node's transport; the node runs on
// Top(). Each layer wraps the one below it and lives as long as the node's
// stack (zombies included).
class RuntimeStack {
 public:
  explicit RuntimeStack(Runtime& base) : top_(&base) {}

  Runtime& Top() const { return *top_; }

  // Builds Layer(Top(), args...) and makes it the new top.
  template <typename Layer, typename... Args>
  Layer& Push(Args&&... args) {
    auto layer = std::make_unique<Layer>(*top_, std::forward<Args>(args)...);
    Layer& ref = *layer;
    top_ = &ref;
    layers_.push_back(std::move(layer));
    return ref;
  }

 private:
  Runtime* top_;
  // bounded: one entry per decorator the wrap hook pushes.
  std::vector<std::unique_ptr<Runtime>> layers_;
};

class Cluster {
 public:
  enum class Kind { kSim, kTcp };

  // What one build of a node is made from. The builder pre-fills
  // options.consensus.{num_nodes,num_faults} and options.wal_path.
  struct NodeSetup {
    AppNodeOptions options;
    AppNodeCallbacks callbacks;
    // (id, data) pairs submitted to the fresh node before it starts.
    std::vector<std::pair<uint64_t, Bytes>> preload;
  };
  using SetupFn = std::function<void(NodeId id, NodeSetup& setup)>;
  using WrapFn = std::function<void(NodeId id, RuntimeStack& stack)>;

  struct Options {
    Kind kind = Kind::kSim;
    uint32_t num_nodes = 4;
    // 1 = one clan of every node (ClanTopology::Full); q > 1 = q disjoint
    // clans, one per application (ClanTopology::MultiClan).
    uint32_t clans = 1;
    // kSim: uniform one-way latency between every pair of nodes.
    TimeMicros sim_latency = Millis(10);
    // Non-empty: every node persists to a WAL file in this directory (see
    // WalPath); the files are removed when the cluster is built and again
    // when it is destroyed. TempDir() is the usual choice.
    std::string wal_dir;
    // kTcp: node i listens on base_port + i; 0 = a free loopback block.
    uint16_t base_port = 0;
    SetupFn setup;
    WrapFn wrap;
  };

  explicit Cluster(Options options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Starts every node in id order; always true on kSim. kTcp: starts every
  // transport, waits for the full mesh, then posts each AppNode's Start onto
  // its loop; false (with every transport stopped) if the mesh does not
  // connect.
  bool Start();
  // kTcp: stops every transport, joining the loop threads. Idempotent; the
  // destructor calls it.
  void Stop();

  // kSim only: fail-stop node `id` (the network drops its traffic), then
  // bring it back as a fresh AppNode over the same identity and WAL. The
  // crashed stack is kept alive as a zombie.
  void Crash(NodeId id);
  AppNode& Restart(NodeId id);

  AppNode& app(NodeId id) { return *nodes_[id].app; }
  const ClanTopology& topology() const { return topology_; }
  // kSim only.
  Scheduler& scheduler() { return *scheduler_; }
  SimNetwork& network() { return *network_; }
  // kTcp only.
  TcpRuntime& tcp(NodeId id) { return *tcp_[id]; }
  uint16_t base_port() const { return options_.base_port; }

  // Node `id`'s WAL file (snapshots live next to it as <path>.snap); empty
  // without a wal_dir.
  std::string WalPath(NodeId id) const;

 private:
  // Forwards a TcpRuntime's messages to the node built after it.
  class Router;

  // One life of a node: its runtime stack and the AppNode on top.
  struct NodeStack {
    std::unique_ptr<SimRuntime> sim;  // kSim; kTcp nodes share tcp_[id].
    std::unique_ptr<RuntimeStack> layers;
    std::unique_ptr<AppNode> app;
  };

  void Build(NodeId id);
  void GossipReceipt(NodeId from, const ExecutionReceipt& receipt);
  void RemoveWalFiles(NodeId id) const;

  Options options_;
  Keychain keychain_;
  ClanTopology topology_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<SimNetwork> network_;
  // Declared before tcp_: a transport never outlives the router it calls.
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<TcpRuntime>> tcp_;
  std::vector<NodeStack> nodes_;
  // bounded: one zombie per Restart(); restarts are capped by the caller's
  // fault schedule.
  std::vector<NodeStack> zombies_;
};

// $TMPDIR, or /tmp when it is unset or empty: the scratch directory for WAL
// files when a caller names none.
std::string TempDir();

}  // namespace clandag

#endif  // CLANDAG_CORE_CLUSTER_H_
