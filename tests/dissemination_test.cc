// Unit tests of the merged vertex+block disseminator: echo gating, block
// verification, pull paths, and rejection of protocol-violating messages;
// then the tribe-assisted RBC properties of paper Definition 2 (validity,
// agreement, integrity, value download) for both flavours, with the RBC value
// m carried as a block's payload.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "consensus/dissemination.h"
#include "rbc/quorum.h"
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
    std::vector<Digest> completed_digests;
    std::vector<BlockInfo> blocks;
  };

  DissemCluster(uint32_t n, ClanTopology topology, RbcFlavor flavor = RbcFlavor::kTwoRound,
                bool multicast_cert = true)
      : keychain_(31, n),
        topology_(std::move(topology)),
        network_(scheduler_, LatencyMatrix::Uniform(n, Millis(5)), NetworkConfig{1e9, 0}),
        events_(n) {
    DisseminationConfig config;
    config.num_nodes = n;
    config.num_faults = (n - 1) / 3;
    config.flavor = flavor;
    config.multicast_cert = multicast_cert;
    for (NodeId id = 0; id < n; ++id) {
      runtimes_.push_back(std::make_unique<SimRuntime>(network_, id));
      DisseminationCallbacks callbacks;
      callbacks.on_vertex_val = [this, id](const Vertex& v) { events_[id].vals.push_back(v); };
      callbacks.on_vertex_complete = [this, id](const Vertex& v, const Digest& digest) {
        events_[id].completed.push_back(v);
        events_[id].completed_digests.push_back(digest);
      };
      callbacks.on_block = [this, id](const BlockInfo& b) { events_[id].blocks.push_back(b); };
      dissems_.push_back(std::make_unique<VertexDisseminator>(*runtimes_[id], keychain_,
                                                              topology_, config,
                                                              std::move(callbacks)));
      adapters_.push_back(std::make_unique<Adapter>(dissems_.back().get()));
      network_.RegisterHandler(id, adapters_.back().get());
    }
  }

  // `payload` empty: a synthetic block of `tx_count` transactions.
  Vertex MakeVertex(NodeId source, Round round, std::optional<BlockInfo>* block_out,
                    uint32_t tx_count = 10, const Bytes& payload = {}) {
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
      b.payload = payload;
      v.block_digest = b.ComputeDigest();
      v.block_tx_count = b.tx_count;
      v.block_created_at = b.created_at;
      *block_out = b;
    }
    return v;
  }

  // r_bcast(m, round) by `sender`: its block carries `value` as the real
  // payload. A sender the topology bars from proposing blocks broadcasts a
  // block-less vertex instead.
  Vertex Broadcast(NodeId sender, Round round, const Bytes& value) {
    std::optional<BlockInfo> block;
    Vertex v = MakeVertex(sender, round,
                          topology_.ProposesBlocks(sender) ? &block : nullptr, 10, value);
    dissem(sender).Propose(v, block);
    return v;
  }

  // Byzantine-sender helper: a hand-sent VAL, plus the block when given.
  void SendRawVal(NodeId from, NodeId to, const Vertex& v, const BlockInfo* block) {
    runtime(from).Send(to, kConsVertexVal, EncodeVertex(v));
    if (block != nullptr) {
      runtime(from).Send(to, kConsBlock, EncodeBlock(*block));
    }
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

// Clan {0..clan_size-1}; the whole tribe is the baseline (standard RBC).
ClanTopology ClanOf(uint32_t n, uint32_t clan_size) {
  return clan_size == n ? ClanTopology::Full(n) : ClanTopology::SingleClanSpread(n, clan_size);
}

// Flavour parameter of the RBC suites below. Its own enum, Bracha first, so
// the parameter values the suites print stay fixed whatever order
// RbcFlavor lists its members in.
enum class Flavor { kBracha, kTwoRound };

RbcFlavor Of(Flavor flavor) {
  return flavor == Flavor::kBracha ? RbcFlavor::kBracha : RbcFlavor::kTwoRound;
}

const char* FlavorName(Flavor flavor) {
  return flavor == Flavor::kBracha ? "Bracha" : "TwoRound";
}

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

TEST(Dissemination, BelowFloorReadyDoesNotRecreateInstance) {
  // READYs for a pruned round are dropped like ECHOs and certs: a full READY
  // quorum for round 1 after PruneBelow(10) leaves no instance behind and
  // fires nothing.
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n), RbcFlavor::kBracha);
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  cluster.dissem(0).Propose(v, block);
  cluster.Run(Seconds(2));
  ASSERT_TRUE(cluster.dissem(1).HasCompleted(0, 1));
  cluster.dissem(1).PruneBelow(10);
  const size_t instances = cluster.dissem(1).NumInstances();
  const size_t vals = cluster.events(1).vals.size();
  const size_t completions = cluster.events(1).completed.size();
  const size_t blocks = cluster.events(1).blocks.size();

  RbcVoteMsg ready;
  ready.sender = 0;
  ready.round = 1;
  ready.digest = Digest::Of(EncodeVertex(v));
  for (NodeId from = 0; from < n; ++from) {
    cluster.dissem(1).HandleMessage(from, kConsReady, ready.Encode());
  }
  cluster.Run(Seconds(4));
  EXPECT_EQ(cluster.dissem(1).NumInstances(), instances);
  EXPECT_FALSE(cluster.dissem(1).HasCompleted(0, 1));
  EXPECT_EQ(cluster.events(1).vals.size(), vals);
  EXPECT_EQ(cluster.events(1).completed.size(), completions);
  EXPECT_EQ(cluster.events(1).blocks.size(), blocks);
}

TEST(Dissemination, PullRetryAfterPruneDoesNotRecreateInstance) {
  // Pull requests are dropped, so node 3's pulls stay armed until their
  // retry timers fire; by then the round is pruned, and the retries must
  // find nothing to resume rather than bring back an empty instance.
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  cluster.network().SetAdversary([](NodeId, NodeId, MsgType type, TimeMicros) {
    return type == kConsBlockPullReq || type == kConsVertexPullReq ? kDropMessage : 0;
  });
  // Round 1: the block reaches only nodes 0..2, whose echoes complete the
  // instance at node 3, which then pulls the block.
  std::optional<BlockInfo> block;
  Vertex with_block = cluster.MakeVertex(0, 1, &block);
  cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(with_block));
  for (NodeId to = 0; to < 3; ++to) {
    cluster.runtime(0).Send(to, kConsBlock, EncodeBlock(*block));
  }
  // Round 2: the vertex body reaches only nodes 0..2, so node 3 hits the
  // echo quorum without it and pulls the body.
  Vertex bodyless = cluster.MakeVertex(1, 2, nullptr);
  for (NodeId to = 0; to < 3; ++to) {
    cluster.runtime(1).Send(to, kConsVertexVal, EncodeVertex(bodyless));
  }
  cluster.Run(Millis(100));
  ASSERT_TRUE(cluster.dissem(3).HasCompleted(0, 1));
  ASSERT_FALSE(cluster.dissem(3).HasBlock(0, 1));
  ASSERT_FALSE(cluster.dissem(3).HasCompleted(1, 2));

  cluster.dissem(3).PruneBelow(10);
  ASSERT_EQ(cluster.dissem(3).NumInstances(), 0u);
  cluster.Run(Millis(100) + 3 * Millis(250));  // Three pull-retry periods.
  EXPECT_EQ(cluster.dissem(3).NumInstances(), 0u);
}

TEST(VoteTracker, SealFreesSignaturesAndKeepsCounting) {
  Keychain keychain(31, 4);
  const Bytes message = {1, 2, 3};
  VoteTracker tracker(4);
  EXPECT_TRUE(tracker.Add(0, true, keychain.Sign(0, message)));
  EXPECT_TRUE(tracker.Add(1, false, keychain.Sign(1, message)));
  EXPECT_GT(tracker.SignatureCapacity(), 0u);

  tracker.Seal();
  EXPECT_EQ(tracker.SignatureCapacity(), 0u);
  EXPECT_TRUE(tracker.Add(2, true, keychain.Sign(2, message)));
  EXPECT_FALSE(tracker.Add(2, true, keychain.Sign(2, message)));  // Still deduplicated.
  EXPECT_EQ(tracker.SignatureCapacity(), 0u);
  EXPECT_EQ(tracker.Count(), 3u);
  EXPECT_EQ(tracker.ClanCount(), 2u);
  EXPECT_TRUE(tracker.Voted(2));
  EXPECT_FALSE(tracker.Voted(3));
  EXPECT_EQ(tracker.voters().Ids(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(tracker.ClanVoters({0, 2, 3}), (std::vector<NodeId>{0, 2}));
}

TEST(Dissemination, CompletedInstanceHoldsNoEchoSignatures) {
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanTopology::SingleClanSpread(n, 4));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  cluster.dissem(0).Propose(v, block);
  cluster.Run();
  for (NodeId id = 0; id < n; ++id) {
    ASSERT_TRUE(cluster.dissem(id).HasCompleted(0, 1)) << "node " << id;
    EXPECT_EQ(cluster.dissem(id).EchoSignatureCapacity(0, 1), 0u) << "node " << id;
  }
}

TEST(Dissemination, LateEchoWhileAwaitingVertexStoresNoSignature) {
  // The body reaches only nodes 0..2 and every vertex pull is dropped, so
  // node 3 reaches the echo quorum and then waits for the body.
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  cluster.network().SetAdversary([](NodeId, NodeId, MsgType type, TimeMicros) {
    return type == kConsVertexPullReq ? kDropMessage : 0;
  });
  Vertex v = cluster.MakeVertex(0, 1, nullptr);
  for (NodeId to = 0; to < 3; ++to) {
    cluster.runtime(0).Send(to, kConsVertexVal, EncodeVertex(v));
  }
  cluster.Run(Millis(100));
  ASSERT_FALSE(cluster.dissem(3).HasCompleted(0, 1));
  EXPECT_EQ(cluster.dissem(3).EchoSignatureCapacity(0, 1), 0u);

  // Signed echoes from node 3 land after the quorum: one for the decided
  // digest and one for another digest, which opens a new tracker.
  auto echo_from_3 = [&](const Digest& digest) {
    RbcVoteMsg echo;
    echo.sender = 0;
    echo.round = 1;
    echo.digest = digest;
    Writer w;
    RbcVoteMsg::SignedMessageTo(w, kConsEcho, echo.sender, echo.round, echo.digest);
    echo.sig = cluster.keychain().Sign(3, w.Take());
    cluster.dissem(3).HandleMessage(3, kConsEcho, echo.Encode());
  };
  echo_from_3(Digest::Of(EncodeVertex(v)));
  echo_from_3(Digest::Of(Bytes{9}));
  EXPECT_EQ(cluster.dissem(3).EchoSignatureCapacity(0, 1), 0u);

  // The sealed voters still name the holders the next pull asks.
  cluster.network().SetAdversary([](NodeId, NodeId, MsgType, TimeMicros) { return 0; });
  cluster.Run(Seconds(2));
  EXPECT_TRUE(cluster.dissem(3).HasCompleted(0, 1));
}

// ---------------------------------------------------------------------------
// Tribe-assisted RBC (paper Definition 2, Figures 2 and 3) on the shipped
// disseminator. The value m rides as a block payload: a clan member delivers
// m when it completes the instance and holds the block; a party outside the
// clan delivers H(m) when it completes the instance and never gets the block.

struct RbcParam {
  uint32_t n;
  uint32_t clan_size;  // == n means standard (whole-tribe) RBC.
  Flavor flavor;
};

class RbcValidity : public ::testing::TestWithParam<RbcParam> {};

// Validity: honest sender => clan members deliver the value, everyone else
// delivers the digest.
TEST_P(RbcValidity, HonestSenderDeliversEverywhere) {
  const RbcParam p = GetParam();
  DissemCluster cluster(p.n, ClanOf(p.n, p.clan_size), Of(p.flavor));
  const Bytes value = ToBytes("the payload");
  const Vertex v = cluster.Broadcast(0, 1, value);
  const Digest digest = Digest::Of(EncodeVertex(v));
  cluster.Run(Seconds(10));
  for (NodeId id = 0; id < p.n; ++id) {
    const auto& e = cluster.events(id);
    ASSERT_EQ(e.completed.size(), 1u) << "node " << id;
    EXPECT_EQ(e.completed[0].source, 0u);
    EXPECT_EQ(e.completed[0].round, 1u);
    EXPECT_EQ(e.completed_digests[0], digest);
    if (id < p.clan_size) {
      ASSERT_EQ(e.blocks.size(), 1u) << "clan member " << id << " must deliver the value";
      EXPECT_EQ(e.blocks[0].payload, value);
    } else {
      EXPECT_TRUE(e.blocks.empty()) << "non-clan member " << id << " delivers digest only";
    }
  }
}

TEST_P(RbcValidity, ConcurrentSendersAllDeliver) {
  const RbcParam p = GetParam();
  DissemCluster cluster(p.n, ClanOf(p.n, p.clan_size), Of(p.flavor));
  for (NodeId s = 0; s < p.n; ++s) {
    cluster.Broadcast(s, 3, ToBytes("value-" + std::to_string(s)));
  }
  cluster.Run(Seconds(10));
  // Under a single clan only its members attach blocks (§5), and only they
  // receive them.
  for (NodeId id = 0; id < p.n; ++id) {
    EXPECT_EQ(cluster.events(id).completed.size(), p.n) << "node " << id;
    EXPECT_EQ(cluster.events(id).blocks.size(), id < p.clan_size ? p.clan_size : 0u)
        << "node " << id;
  }
}

TEST_P(RbcValidity, MultipleRoundsIndependentInstances) {
  const RbcParam p = GetParam();
  DissemCluster cluster(p.n, ClanOf(p.n, p.clan_size), Of(p.flavor));
  cluster.Broadcast(1, 1, ToBytes("round one"));
  cluster.Broadcast(1, 2, ToBytes("round two"));
  cluster.Run(Seconds(10));
  for (NodeId id = 0; id < p.n; ++id) {
    EXPECT_EQ(cluster.events(id).completed.size(), 2u) << "node " << id;
    EXPECT_EQ(cluster.events(id).blocks.size(), id < p.clan_size ? 2u : 0u) << "node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RbcValidity,
    ::testing::Values(RbcParam{4, 4, Flavor::kBracha}, RbcParam{4, 4, Flavor::kTwoRound},
                      RbcParam{7, 4, Flavor::kBracha}, RbcParam{7, 4, Flavor::kTwoRound},
                      RbcParam{10, 5, Flavor::kBracha},
                      RbcParam{10, 5, Flavor::kTwoRound},
                      RbcParam{13, 7, Flavor::kBracha},
                      RbcParam{13, 7, Flavor::kTwoRound},
                      RbcParam{13, 13, Flavor::kBracha},
                      RbcParam{13, 13, Flavor::kTwoRound}),
    [](const ::testing::TestParamInfo<RbcParam>& info) {
      return "n" + std::to_string(info.param.n) + "c" + std::to_string(info.param.clan_size) +
             FlavorName(info.param.flavor);
    });

class RbcByzantine : public ::testing::TestWithParam<Flavor> {};

// Byzantine sender pushes the block to only f_c+1 clan members; the rest of
// the clan must download it (paper Figure 2 step 5 / Figure 3 step 3).
TEST_P(RbcByzantine, WithheldValueIsDownloaded) {
  const uint32_t n = 10;
  const uint32_t clan_size = 5;  // f_c = 2, so f_c+1 = 3 holders.
  DissemCluster cluster(n, ClanOf(n, clan_size), Of(GetParam()));
  const Bytes value = ToBytes("withheld");
  std::optional<BlockInfo> block;
  const Vertex v = cluster.MakeVertex(0, 1, &block, 10, value);
  // Sender 0 (clan member): the vertex to everyone, the block to clan nodes
  // 0..2 only.
  for (NodeId to = 0; to < n; ++to) {
    cluster.SendRawVal(0, to, v, to <= 2 ? &*block : nullptr);
  }
  cluster.Run(Seconds(30));
  for (NodeId id = 0; id < n; ++id) {
    const auto& e = cluster.events(id);
    ASSERT_EQ(e.completed.size(), 1u) << "node " << id;
    if (id < clan_size) {
      ASSERT_EQ(e.blocks.size(), 1u) << "clan node " << id << " must obtain the value";
      EXPECT_EQ(e.blocks[0].payload, value);
    }
  }
}

// Equivocating sender: half the tribe gets m1, half m2. No two honest
// parties may deliver different digests (delivery may not happen at all).
TEST_P(RbcByzantine, EquivocationNeverSplitsDeliveries) {
  const uint32_t n = 10;
  const uint32_t clan_size = 6;
  DissemCluster cluster(n, ClanOf(n, clan_size), Of(GetParam()));
  std::optional<BlockInfo> b1;
  std::optional<BlockInfo> b2;
  const Vertex v1 = cluster.MakeVertex(0, 1, &b1, 10, ToBytes("value one"));
  const Vertex v2 = cluster.MakeVertex(0, 1, &b2, 10, ToBytes("value two"));
  for (NodeId to = 0; to < n; ++to) {
    const bool even = to % 2 == 0;
    const BlockInfo& b = even ? *b1 : *b2;
    cluster.SendRawVal(0, to, even ? v1 : v2, to < clan_size ? &b : nullptr);
  }
  cluster.Run(Seconds(30));
  std::optional<Digest> seen;
  for (NodeId id = 0; id < n; ++id) {
    for (const Digest& d : cluster.events(id).completed_digests) {
      if (!seen.has_value()) {
        seen = d;
      }
      EXPECT_EQ(d, *seen) << "conflicting delivery at node " << id;
    }
  }
}

// Integrity: a second VAL for the same (sender, round) cannot cause a second
// delivery, of the instance or of its block.
TEST_P(RbcByzantine, IntegrityAtMostOnce) {
  const uint32_t n = 7;
  const uint32_t clan_size = 4;
  DissemCluster cluster(n, ClanOf(n, clan_size), Of(GetParam()));
  const Bytes first = ToBytes("first");
  cluster.Broadcast(2, 5, first);
  cluster.Run(Seconds(5));
  // Replay the same instance with different content.
  std::optional<BlockInfo> block;
  const Vertex v = cluster.MakeVertex(2, 5, &block, 10, ToBytes("second"));
  for (NodeId to = 0; to < n; ++to) {
    cluster.SendRawVal(2, to, v, to < clan_size ? &*block : nullptr);
  }
  cluster.Run(Seconds(20));
  for (NodeId id = 0; id < n; ++id) {
    const auto& e = cluster.events(id);
    EXPECT_EQ(e.completed.size(), 1u) << "node " << id;
    if (id < clan_size) {
      ASSERT_EQ(e.blocks.size(), 1u) << "node " << id;
      EXPECT_EQ(e.blocks[0].payload, first);
    }
  }
}

// Crashed sender: nothing delivers, nothing wedges.
TEST_P(RbcByzantine, CrashedSenderNoDelivery) {
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanOf(n, 4), Of(GetParam()));
  cluster.network().SetCrashed(0, true);
  cluster.Broadcast(0, 1, ToBytes("never sent"));
  cluster.Run(Seconds(5));
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_TRUE(cluster.events(id).completed.empty()) << "node " << id;
    EXPECT_TRUE(cluster.events(id).blocks.empty()) << "node " << id;
  }
}

// A block pushed to a node outside the clan is rejected (values are
// confined to the clan), and a VAL heard by that node alone completes
// nothing.
TEST_P(RbcByzantine, NonClanValueIgnored) {
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanOf(n, 4), Of(GetParam()));
  std::optional<BlockInfo> block;
  const Vertex v = cluster.MakeVertex(0, 1, &block, 10, ToBytes("smuggled"));
  cluster.SendRawVal(0, 5, v, &*block);
  cluster.Run(Seconds(5));
  EXPECT_TRUE(cluster.events(5).completed.empty());
  EXPECT_TRUE(cluster.events(5).blocks.empty());
}

INSTANTIATE_TEST_SUITE_P(Flavors, RbcByzantine,
                         ::testing::Values(Flavor::kBracha, Flavor::kTwoRound),
                         [](const ::testing::TestParamInfo<Flavor>& info) {
                           return FlavorName(info.param);
                         });

// Drops every ECHO addressed to node 6.
TimeMicros DropEchoesToSix(NodeId, NodeId to, MsgType type, TimeMicros) {
  return to == 6 && type == kConsEcho ? kDropMessage : 0;
}

// Bracha's READY amplification: a node whose ECHOs were all lost still
// delivers from the READY messages.
TEST(BrachaRbc, DeliversDespiteLostEchoes) {
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanOf(n, n), RbcFlavor::kBracha);
  cluster.network().SetAdversary(DropEchoesToSix);
  const Bytes value = ToBytes("resilient");
  cluster.Broadcast(0, 1, value);
  cluster.Run(Seconds(30));
  ASSERT_EQ(cluster.events(6).completed.size(), 1u);
  ASSERT_EQ(cluster.events(6).blocks.size(), 1u);
  EXPECT_EQ(cluster.events(6).blocks[0].payload, value);
}

// Two-round flavour: the echo-certificate multicast lets a node that missed
// the ECHOs deliver.
TEST(TwoRoundRbc, CertificateCarriesLaggards) {
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanOf(n, n), RbcFlavor::kTwoRound, /*multicast_cert=*/true);
  cluster.network().SetAdversary(DropEchoesToSix);
  const Bytes value = ToBytes("via-cert");
  cluster.Broadcast(0, 1, value);
  cluster.Run(Seconds(30));
  ASSERT_EQ(cluster.events(6).completed.size(), 1u);
  ASSERT_EQ(cluster.events(6).blocks.size(), 1u);
  EXPECT_EQ(cluster.events(6).blocks[0].payload, value);
}

// Good-case certificate suppression still delivers everywhere when every
// honest echo arrives (the optimization's stated precondition).
TEST(TwoRoundRbc, CertSuppressionGoodCase) {
  const uint32_t n = 10;
  DissemCluster cluster(n, ClanOf(n, 5), RbcFlavor::kTwoRound, /*multicast_cert=*/false);
  cluster.Broadcast(3, 2, ToBytes("no certs"));
  cluster.Run(Seconds(10));
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
  }
}

}  // namespace
}  // namespace clandag
