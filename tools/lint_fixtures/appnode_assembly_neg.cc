// lint_invariants fixture: appnode-assembly must pass this file.
// AppNodes come from the cluster builder; a handler that forwards to a
// protocol object below AppNode is not cluster wiring.

#include "consensus/dissemination.h"
#include "core/cluster.h"

namespace clandag {

struct Adapter final : MessageHandler {
  VertexDisseminator* dissem = nullptr;
  void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
    dissem->HandleMessage(from, type, payload);
  }
};

uint64_t ExecutedAtNodeZero() {
  Cluster::Options options;
  options.setup = [](NodeId, Cluster::NodeSetup& setup) {
    setup.preload.emplace_back(1, Bytes(8, 0x01));
  };
  Cluster cluster(std::move(options));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(1));
  AppNode& node = cluster.app(0);
  return node.execution().ExecutedTxs();
}

}  // namespace clandag
