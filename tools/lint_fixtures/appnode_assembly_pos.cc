// lint_invariants fixture: appnode-assembly must flag this file (twice).
// A hand-wired TCP node: its own forwarding handler and its own AppNode.

#include <memory>

#include "core/app_node.h"
#include "net/tcp_transport.h"

namespace clandag {

struct Forwarder final : MessageHandler {
  AppNode* node = nullptr;
  void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
    node->OnMessage(from, type, payload);
  }
};

std::unique_ptr<AppNode> BuildNode(TcpRuntime& net, const Keychain& keys,
                                   const ClanTopology& topology, Forwarder& forwarder) {
  auto node = std::make_unique<clandag::AppNode>(net, keys, topology, AppNodeOptions{},
                                                 AppNodeCallbacks{});
  forwarder.node = node.get();
  return node;
}

}  // namespace clandag
