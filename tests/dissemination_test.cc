// Unit tests of the merged vertex+block disseminator: echo gating, block
// verification, pull paths, and rejection of protocol-violating messages.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "consensus/dissemination.h"
#include "rbc/wire.h"
#include "sim/network.h"

namespace clandag {
namespace {

// A cluster of bare disseminators (no consensus on top) plus helpers to
// inject hand-crafted traffic.
class DissemCluster {
 public:
  struct Events {
    std::vector<Vertex> vals;
    std::vector<Vertex> completed;
    std::vector<BlockInfo> blocks;
  };

  DissemCluster(uint32_t n, ClanTopology topology)
      : keychain_(31, n),
        topology_(std::move(topology)),
        network_(scheduler_, LatencyMatrix::Uniform(n, Millis(5)), NetworkConfig{1e9, 0}),
        events_(n) {
    DisseminationConfig config;
    config.num_nodes = n;
    config.num_faults = (n - 1) / 3;
    for (NodeId id = 0; id < n; ++id) {
      runtimes_.push_back(std::make_unique<SimRuntime>(network_, id));
      DisseminationCallbacks callbacks;
      callbacks.on_vertex_val = [this, id](const Vertex& v) { events_[id].vals.push_back(v); };
      callbacks.on_vertex_complete = [this, id](const Vertex& v, const Digest&) {
        events_[id].completed.push_back(v);
      };
      callbacks.on_block = [this, id](const BlockInfo& b) { events_[id].blocks.push_back(b); };
      dissems_.push_back(std::make_unique<VertexDisseminator>(*runtimes_[id], keychain_,
                                                              topology_, config,
                                                              std::move(callbacks)));
      adapters_.push_back(std::make_unique<Adapter>(dissems_.back().get()));
      network_.RegisterHandler(id, adapters_.back().get());
    }
  }

  Vertex MakeVertex(NodeId source, Round round, std::optional<BlockInfo>* block_out,
                    uint32_t tx_count = 10) {
    Vertex v;
    v.round = round;
    v.source = source;
    if (block_out != nullptr) {
      BlockInfo b;
      b.proposer = source;
      b.round = round;
      b.created_at = 1;
      b.tx_count = tx_count;
      b.tx_size = 512;
      v.block_digest = b.ComputeDigest();
      v.block_tx_count = b.tx_count;
      v.block_created_at = b.created_at;
      *block_out = b;
    }
    return v;
  }

  void Run(TimeMicros t = Seconds(5)) { scheduler_.RunUntil(t); }

  VertexDisseminator& dissem(NodeId id) { return *dissems_[id]; }
  const Keychain& keychain() const { return keychain_; }
  SimRuntime& runtime(NodeId id) { return *runtimes_[id]; }
  const Events& events(NodeId id) const { return events_[id]; }
  SimNetwork& network() { return network_; }

 private:
  struct Adapter : MessageHandler {
    explicit Adapter(VertexDisseminator* d) : dissem(d) {}
    void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
      dissem->HandleMessage(from, type, payload);
    }
    VertexDisseminator* dissem;
  };

  Scheduler scheduler_;
  Keychain keychain_;
  ClanTopology topology_;
  SimNetwork network_;
  std::vector<std::unique_ptr<SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<VertexDisseminator>> dissems_;
  std::vector<std::unique_ptr<Adapter>> adapters_;
  std::vector<Events> events_;
};

TEST(Dissemination, HonestProposalCompletesEverywhere) {
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanTopology::SingleClanSpread(n, 4));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  cluster.dissem(0).Propose(v, block);
  cluster.Run();
  for (NodeId id = 0; id < n; ++id) {
    ASSERT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
    EXPECT_EQ(cluster.events(id).completed[0].source, 0u);
    // Only clan members (0..3) receive the block.
    EXPECT_EQ(cluster.events(id).blocks.size(), id < 4 ? 1u : 0u) << "node " << id;
  }
}

TEST(Dissemination, ClanMembersEchoOnlyWithBlock) {
  // Send the vertex but not the block: no clan member can echo, so with a
  // clan quorum of f_c+1 = 2 needed and only 3 non-clan echoes available,
  // the instance must not complete.
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanTopology::SingleClanSpread(n, 4));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  // Hand-send only the vertex VAL (no kConsBlock messages).
  cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
  cluster.Run(Seconds(3));
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_TRUE(cluster.events(id).completed.empty()) << "node " << id;
  }
}

TEST(Dissemination, BlockBeforeVertexIsVerifiedOnArrival) {
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  // Deliver the block first, then the vertex.
  cluster.runtime(0).Broadcast(kConsBlock, EncodeBlock(*block));
  cluster.Run(Millis(100));
  EXPECT_TRUE(cluster.events(1).blocks.empty());  // Unverified: not surfaced yet.
  cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
  cluster.Run(Seconds(3));
  ASSERT_EQ(cluster.events(1).blocks.size(), 1u);
  ASSERT_EQ(cluster.events(1).completed.size(), 1u);
}

TEST(Dissemination, MismatchedBlockIsDropped) {
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  BlockInfo wrong = *block;
  wrong.tx_count += 1;  // Digest no longer matches the vertex.
  cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
  cluster.runtime(0).Broadcast(kConsBlock, EncodeBlock(wrong));
  cluster.Run(Seconds(2));
  for (NodeId id = 1; id < n; ++id) {
    EXPECT_TRUE(cluster.events(id).blocks.empty()) << "node " << id;
    EXPECT_TRUE(cluster.events(id).completed.empty()) << "node " << id;
  }
}

TEST(Dissemination, BlockFromNonProposerRejected) {
  // Single-clan mode: node 5 is outside the clan and must not propose
  // blocks; a block-bearing vertex from it is ignored outright.
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanTopology::SingleClanSpread(n, 4));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(5, 1, &block);
  cluster.runtime(5).Broadcast(kConsVertexVal, EncodeVertex(v));
  cluster.Run(Seconds(2));
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_TRUE(cluster.events(id).vals.empty()) << "node " << id;
  }
}

TEST(Dissemination, VertexBodyPulledAfterQuorumWithoutBody) {
  // The sender pushes the vertex to only 3 of 4 nodes (n=4, f=1, quorum=3):
  // the echoes of those 3 complete the instance at node 3, which must pull
  // the body from an echoer before surfacing completion.
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, nullptr);
  (void)block;
  Bytes encoded = EncodeVertex(v);
  for (NodeId to = 0; to < 3; ++to) {
    cluster.runtime(0).Send(to, kConsVertexVal, Bytes(encoded));
  }
  cluster.Run(Seconds(5));
  ASSERT_EQ(cluster.events(3).completed.size(), 1u) << "node 3 must pull and complete";
  EXPECT_EQ(cluster.events(3).completed[0].source, 0u);
}

TEST(Dissemination, WithheldBlockPulledByClanAfterCompletion) {
  // Block pushed to 3 of 4 nodes: their echoes complete the instance, and
  // the fourth node fetches the block off the critical path afterwards.
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
  Bytes block_bytes = EncodeBlock(*block);
  for (NodeId to = 0; to < 3; ++to) {
    cluster.runtime(0).Send(to, kConsBlock, Bytes(block_bytes));
  }
  cluster.Run(Seconds(5));
  for (NodeId id = 0; id < n; ++id) {
    ASSERT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
    EXPECT_EQ(cluster.events(id).blocks.size(), 1u) << "node " << id;
  }
}

TEST(Dissemination, PruneBelowDropsState) {
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  cluster.dissem(0).Propose(v, block);
  cluster.Run(Seconds(2));
  EXPECT_TRUE(cluster.dissem(1).HasCompleted(0, 1));
  cluster.dissem(1).PruneBelow(10);
  EXPECT_FALSE(cluster.dissem(1).HasCompleted(0, 1));
}

TEST(Dissemination, HasBlockAndGetBlock) {
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(2, 3, &block, 77);
  cluster.dissem(2).Propose(v, block);
  cluster.Run(Seconds(2));
  ASSERT_TRUE(cluster.dissem(0).HasBlock(2, 3));
  const BlockInfo* stored = cluster.dissem(0).GetBlock(2, 3);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->tx_count, 77u);
  EXPECT_FALSE(cluster.dissem(0).HasBlock(2, 4));
}

TEST(Dissemination, CorruptCertChangesNothing) {
  // A cert for an instance that already has its quorum is dropped before its
  // multisig is checked, so a corrupted aggregate there must be as harmless
  // as a valid one. For an unknown instance the check rejects it, and no
  // instance is left behind.
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  cluster.dissem(0).Propose(v, block);
  cluster.Run(Seconds(2));
  ASSERT_TRUE(cluster.dissem(1).HasCompleted(0, 1));

  // Every party "signs", but over the wrong message: a corrupted aggregate.
  auto corrupt_cert = [&](NodeId source, Round round) {
    RbcCertMsg msg;
    msg.sender = source;
    msg.round = round;
    msg.digest = Digest::Of(ToBytes("some vertex"));
    SignerBitmap signers(n);
    std::vector<Signature> parts;
    for (NodeId id = 0; id < n; ++id) {
      signers.Set(id);
      parts.push_back(cluster.keychain().Sign(id, ToBytes("not the echo statement")));
    }
    msg.sig = MultiSig::Aggregate(signers, parts);
    return msg.Encode();
  };
  const size_t completions = cluster.events(1).completed.size();
  const size_t instances = cluster.dissem(1).NumInstances();

  cluster.dissem(1).HandleMessage(2, kConsCert, corrupt_cert(0, 1));
  EXPECT_TRUE(cluster.dissem(1).HasCompleted(0, 1));
  EXPECT_EQ(cluster.events(1).completed.size(), completions);
  EXPECT_EQ(cluster.dissem(1).NumInstances(), instances);

  cluster.dissem(1).HandleMessage(2, kConsCert, corrupt_cert(3, 7));
  EXPECT_FALSE(cluster.dissem(1).HasCompleted(3, 7));
  EXPECT_EQ(cluster.dissem(1).NumInstances(), instances);
}

}  // namespace
}  // namespace clandag
