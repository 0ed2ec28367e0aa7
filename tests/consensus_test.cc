#include <gtest/gtest.h>

#include <memory>

#include "consensus/clan.h"
#include "consensus/committer.h"
#include "consensus/sailfish.h"
#include "sim/network.h"
#include "smr/mempool.h"

namespace clandag {
namespace {

// ---- ClanTopology ----

TEST(ClanTopology, FullMode) {
  ClanTopology t = ClanTopology::Full(7);
  EXPECT_EQ(t.mode(), DisseminationMode::kFull);
  EXPECT_EQ(t.num_clans(), 1u);
  EXPECT_EQ(t.BlockRecipients(3).size(), 7u);
  EXPECT_TRUE(t.ReceivesBlocksOf(3, 6));
  EXPECT_TRUE(t.ProposesBlocks(5));
}

TEST(ClanTopology, SingleClanMembership) {
  ClanTopology t = ClanTopology::SingleClan(10, {1, 3, 5, 7});
  EXPECT_EQ(t.BlockRecipients(3), (std::vector<NodeId>{1, 3, 5, 7}));
  // Non-members never receive blocks, regardless of proposer.
  EXPECT_FALSE(t.ReceivesBlocksOf(3, 0));
  EXPECT_TRUE(t.ReceivesBlocksOf(3, 5));
  // Only clan members propose blocks in single-clan mode (paper §5).
  EXPECT_TRUE(t.ProposesBlocks(1));
  EXPECT_FALSE(t.ProposesBlocks(0));
  // f_c+1 for a clan of 4 (f_c = 1).
  EXPECT_EQ(t.ClanQuorumFor(2), 2u);
}

TEST(ClanTopology, SingleClanSpreadTakesPrefix) {
  ClanTopology t = ClanTopology::SingleClanSpread(10, 4);
  EXPECT_EQ(t.Clan(0), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(ClanTopology, SingleClanRandomIsValid) {
  DetRng rng(5);
  ClanTopology t = ClanTopology::SingleClanRandom(20, 8, rng);
  EXPECT_EQ(t.Clan(0).size(), 8u);
  EXPECT_TRUE(std::is_sorted(t.Clan(0).begin(), t.Clan(0).end()));
}

TEST(ClanTopology, MultiClanPartition) {
  ClanTopology t = ClanTopology::MultiClan(10, 2);
  EXPECT_EQ(t.num_clans(), 2u);
  EXPECT_EQ(t.Clan(0).size() + t.Clan(1).size(), 10u);
  // Every node proposes; blocks go to the proposer's own clan.
  EXPECT_TRUE(t.ProposesBlocks(7));
  EXPECT_EQ(t.ClanIndexOf(4), 0);
  EXPECT_EQ(t.ClanIndexOf(5), 1);
  EXPECT_TRUE(t.ReceivesBlocksOf(4, 6));    // Same clan (even ids).
  EXPECT_FALSE(t.ReceivesBlocksOf(4, 5));   // Other clan.
}

TEST(ClanTopology, MultiClanRandomCoversEveryone) {
  DetRng rng(11);
  ClanTopology t = ClanTopology::MultiClanRandom(12, 3, rng);
  size_t total = 0;
  for (uint32_t c = 0; c < t.num_clans(); ++c) {
    total += t.Clan(c).size();
  }
  EXPECT_EQ(total, 12u);
  for (NodeId id = 0; id < 12; ++id) {
    EXPECT_GE(t.ClanIndexOf(id), 0);
  }
}

// ---- Committer (unit, hand-built DAG) ----

class CommitterTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 4;
  static constexpr uint32_t kQuorum = 3;

  CommitterTest()
      : dag_(kNodes),
        committer_(
            dag_, kNodes, kQuorum, [](Round r) { return static_cast<NodeId>(r % kNodes); },
            [this](const Vertex& v) { ordered_.push_back({v.round, v.source}); }) {}

  Vertex BuildVertex(Round r, NodeId src, const std::vector<NodeId>& parents) {
    Vertex v;
    v.round = r;
    v.source = src;
    for (NodeId p : parents) {
      v.strong_edges.push_back(StrongEdge{p, *dag_.DigestOf(r - 1, p)});
    }
    return v;
  }

  void InsertAndFeed(const Vertex& v) {
    Vertex copy = v;
    ASSERT_TRUE(dag_.Insert(std::move(copy)));
    committer_.OnVertexAdded(*dag_.Get(v.round, v.source));
  }

  void FillRound(Round r) {
    std::vector<NodeId> parents;
    if (r > 0) {
      for (NodeId p = 0; p < kNodes; ++p) {
        parents.push_back(p);
      }
    }
    for (NodeId src = 0; src < kNodes; ++src) {
      InsertAndFeed(BuildVertex(r, src, parents));
    }
  }

  DagStore dag_;
  Committer committer_;
  std::vector<std::pair<Round, NodeId>> ordered_;
};

TEST_F(CommitterTest, DirectCommitAfterQuorumVotes) {
  FillRound(0);
  EXPECT_EQ(committer_.LastCommittedRound(), -1);
  FillRound(1);  // All four round-1 vertices vote for leader(0) = node 0.
  EXPECT_EQ(committer_.LastCommittedRound(), 0);
  // Anchor (0,0) ordered its history: just itself.
  ASSERT_FALSE(ordered_.empty());
  EXPECT_EQ(ordered_[0], (std::pair<Round, NodeId>{0, 0}));
}

TEST_F(CommitterTest, NoCommitBelowQuorum) {
  FillRound(0);
  // Only two round-1 vertices (need 3 votes).
  InsertAndFeed(BuildVertex(1, 0, {0, 1, 2, 3}));
  InsertAndFeed(BuildVertex(1, 1, {0, 1, 2, 3}));
  EXPECT_EQ(committer_.LastCommittedRound(), -1);
}

TEST_F(CommitterTest, VotesRequireEdgeToLeader) {
  FillRound(0);
  // Round-1 vertices reference only {1,2,3}: no votes for leader 0.
  for (NodeId src = 0; src < kNodes; ++src) {
    InsertAndFeed(BuildVertex(1, src, {1, 2, 3}));
  }
  EXPECT_EQ(committer_.LastCommittedRound(), -1);
}

TEST_F(CommitterTest, ChainCommitOrdersIntermediateAnchors) {
  // Rounds 0..3 fully linked; votes arrive only at round 4, committing the
  // round-3 anchor; the walk back commits leaders 2, 1, 0 too.
  FillRound(0);
  for (Round r = 1; r <= 2; ++r) {
    // Reference all parents but exclude each round's leader from *votes* by
    // referencing everything EXCEPT leader(r-1).
    std::vector<NodeId> parents;
    for (NodeId p = 0; p < kNodes; ++p) {
      if (p != static_cast<NodeId>((r - 1) % kNodes)) {
        parents.push_back(p);
      }
    }
    for (NodeId src = 0; src < kNodes; ++src) {
      InsertAndFeed(BuildVertex(r, src, parents));
    }
  }
  EXPECT_EQ(committer_.LastCommittedRound(), -1);
  // Round 3 fully references round 2 (votes for leader(2) = node 2).
  for (NodeId src = 0; src < kNodes; ++src) {
    InsertAndFeed(BuildVertex(3, src, {0, 1, 2, 3}));
  }
  EXPECT_EQ(committer_.LastCommittedRound(), 2);
  EXPECT_GE(committer_.AnchorsCommitted(), 1u);
  // Skipped leaders 0 and 1 (no strong path to them from the chain).
  EXPECT_EQ(committer_.AnchorsSkipped(), 2u);
  // Total order covers rounds 0..2 history exactly once.
  std::set<std::pair<Round, NodeId>> unique(ordered_.begin(), ordered_.end());
  EXPECT_EQ(unique.size(), ordered_.size());
}

TEST_F(CommitterTest, VoteFromValCountsBeforeDagInsertion) {
  FillRound(0);
  FillRound(1);  // Commits round 0.
  ordered_.clear();
  // Round-2 votes arrive as VALs (CountVote) before their DAG insertion.
  std::vector<Vertex> round2;
  for (NodeId src = 0; src < kNodes; ++src) {
    round2.push_back(BuildVertex(2, src, {0, 1, 2, 3}));
  }
  for (const Vertex& v : round2) {
    committer_.CountVote(v);
  }
  // Quorum of votes for leader(1) = node 1 reached; leader vertex already in
  // the DAG, so the commit fires immediately.
  EXPECT_EQ(committer_.LastCommittedRound(), 1);
}

TEST_F(CommitterTest, DuplicateVotesNotDoubleCounted) {
  FillRound(0);
  Vertex v = BuildVertex(1, 0, {0, 1, 2, 3});
  committer_.CountVote(v);
  committer_.CountVote(v);
  committer_.CountVote(v);
  EXPECT_EQ(committer_.LastCommittedRound(), -1);
}

TEST_F(CommitterTest, OrderedExactlyOnceAcrossAnchors) {
  for (Round r = 0; r <= 4; ++r) {
    FillRound(r);
  }
  std::set<std::pair<Round, NodeId>> unique(ordered_.begin(), ordered_.end());
  EXPECT_EQ(unique.size(), ordered_.size()) << "a vertex was ordered twice";
  EXPECT_EQ(committer_.LastCommittedRound(), 3);
}

// ---- SailfishNode over the simulated network ----

struct SailfishClusterOptions {
  uint32_t n = 4;
  DisseminationMode mode = DisseminationMode::kFull;
  uint32_t clan_size = 0;
  uint32_t num_clans = 2;
  RbcFlavor flavor = RbcFlavor::kTwoRound;
  uint32_t txs_per_proposal = 10;
  TimeMicros round_timeout = Millis(400);
  TimeMicros latency = Millis(10);
};

class SailfishCluster {
 public:
  explicit SailfishCluster(const SailfishClusterOptions& opts)
      : opts_(opts),
        keychain_(3, opts.n),
        topology_(MakeTopology(opts)),
        network_(scheduler_, LatencyMatrix::Uniform(opts.n, opts.latency),
                 NetworkConfig{1e9, 0}),
        ordered_(opts.n) {
    const uint32_t f = (opts.n - 1) / 3;
    for (NodeId id = 0; id < opts_.n; ++id) {
      runtimes_.push_back(std::make_unique<SimRuntime>(network_, id));
      workloads_.push_back(std::make_unique<SyntheticWorkload>(
          SyntheticWorkload::Options{opts.txs_per_proposal, 512}));
      SailfishConfig config;
      config.num_nodes = opts.n;
      config.num_faults = f;
      config.round_timeout = opts.round_timeout;
      config.dissemination.flavor = opts.flavor;
      SailfishCallbacks callbacks;
      callbacks.on_ordered = [this, id](const Vertex& v) {
        ordered_[id].push_back({v.round, v.source});
      };
      nodes_.push_back(std::make_unique<SailfishNode>(*runtimes_[id], keychain_, topology_,
                                                      config, workloads_[id].get(),
                                                      std::move(callbacks)));
      network_.RegisterHandler(id, nodes_[id].get());
    }
  }

  static ClanTopology MakeTopology(const SailfishClusterOptions& opts) {
    switch (opts.mode) {
      case DisseminationMode::kSingleClan:
        return ClanTopology::SingleClanSpread(opts.n, opts.clan_size);
      case DisseminationMode::kMultiClan:
        return ClanTopology::MultiClan(opts.n, opts.num_clans);
      case DisseminationMode::kFull:
      default:
        return ClanTopology::Full(opts.n);
    }
  }

  void Start(const std::vector<NodeId>& crashed = {}) {
    for (NodeId id : crashed) {
      network_.SetCrashed(id, true);
    }
    for (NodeId id = 0; id < opts_.n; ++id) {
      if (!network_.IsCrashed(id)) {
        nodes_[id]->Start();
      }
    }
  }

  void Run(TimeMicros duration) { scheduler_.RunUntil(scheduler_.Now() + duration); }

  SailfishNode& node(NodeId id) { return *nodes_[id]; }
  SimNetwork& network() { return network_; }
  Scheduler& scheduler() { return scheduler_; }
  const std::vector<std::pair<Round, NodeId>>& OrderedAt(NodeId id) const {
    return ordered_[id];
  }

  // Honest nodes' logs must be prefix-compatible.
  void ExpectAgreement() {
    const std::vector<std::pair<Round, NodeId>>* longest = nullptr;
    for (NodeId id = 0; id < opts_.n; ++id) {
      if (network_.IsCrashed(id)) {
        continue;
      }
      if (longest == nullptr || ordered_[id].size() > longest->size()) {
        longest = &ordered_[id];
      }
    }
    ASSERT_NE(longest, nullptr);
    for (NodeId id = 0; id < opts_.n; ++id) {
      if (network_.IsCrashed(id)) {
        continue;
      }
      for (size_t i = 0; i < ordered_[id].size(); ++i) {
        ASSERT_EQ(ordered_[id][i], (*longest)[i]) << "divergence at node " << id << " pos " << i;
      }
    }
  }

 private:
  SailfishClusterOptions opts_;
  Scheduler scheduler_;
  Keychain keychain_;
  ClanTopology topology_;
  SimNetwork network_;
  std::vector<std::unique_ptr<SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<SyntheticWorkload>> workloads_;
  std::vector<std::unique_ptr<SailfishNode>> nodes_;
  std::vector<std::vector<std::pair<Round, NodeId>>> ordered_;
};

TEST(Sailfish, HappyPathCommitsAndAgrees) {
  SailfishClusterOptions opts;
  SailfishCluster cluster(opts);
  cluster.Start();
  cluster.Run(Seconds(2));
  EXPECT_GE(cluster.node(0).LastCommittedRound(), 5);
  EXPECT_EQ(cluster.node(0).committer().AnchorsSkipped(), 0u);
  cluster.ExpectAgreement();
  EXPECT_FALSE(cluster.OrderedAt(0).empty());
}

TEST(Sailfish, RoundsAdvanceAtNetworkSpeed) {
  // With 10 ms one-way latency and the two-round RBC, a round takes ~2δ;
  // after 2 simulated seconds the nodes should be far past round 20.
  SailfishClusterOptions opts;
  SailfishCluster cluster(opts);
  cluster.Start();
  cluster.Run(Seconds(2));
  EXPECT_GE(cluster.node(0).CurrentRound(), 40u);
}

TEST(Sailfish, LeaderVertexCommitsInAboutThreeDelta) {
  // Sailfish's headline: leader vertex commit latency = 1 RBC + 1δ = 3δ.
  // Rounds are ~2δ, so the anchor of round r commits ~1.5 rounds after its
  // proposal; the committed round should track the current round closely.
  SailfishClusterOptions opts;
  SailfishCluster cluster(opts);
  cluster.Start();
  cluster.Run(Seconds(2));
  const int64_t committed = cluster.node(0).LastCommittedRound();
  const Round current = cluster.node(0).CurrentRound();
  EXPECT_GE(committed, static_cast<int64_t>(current) - 4);
}

TEST(Sailfish, BrachaFlavorAlsoCommits) {
  SailfishClusterOptions opts;
  opts.flavor = RbcFlavor::kBracha;
  SailfishCluster cluster(opts);
  cluster.Start();
  cluster.Run(Seconds(2));
  EXPECT_GE(cluster.node(0).LastCommittedRound(), 3);
  cluster.ExpectAgreement();
}

TEST(Sailfish, SingleClanCommitsAndAgrees) {
  SailfishClusterOptions opts;
  opts.n = 7;
  opts.mode = DisseminationMode::kSingleClan;
  opts.clan_size = 4;
  SailfishCluster cluster(opts);
  cluster.Start();
  cluster.Run(Seconds(2));
  EXPECT_GE(cluster.node(0).LastCommittedRound(), 3);
  cluster.ExpectAgreement();
  // Non-clan nodes order vertices but only clan proposers carry blocks.
  bool saw_nonclan_block = false;
  for (const auto& [round, source] : cluster.OrderedAt(0)) {
    const Vertex* v = cluster.node(0).dag().Get(round, source);
    if (v != nullptr && v->HasBlock() && source >= opts.clan_size) {
      saw_nonclan_block = true;
    }
  }
  EXPECT_FALSE(saw_nonclan_block);
}

TEST(Sailfish, MultiClanCommitsAndAgrees) {
  SailfishClusterOptions opts;
  opts.n = 10;
  opts.mode = DisseminationMode::kMultiClan;
  opts.num_clans = 2;
  SailfishCluster cluster(opts);
  cluster.Start();
  cluster.Run(Seconds(2));
  EXPECT_GE(cluster.node(0).LastCommittedRound(), 3);
  cluster.ExpectAgreement();
}

TEST(Sailfish, CrashedLeaderIsSkippedViaTimeout) {
  SailfishClusterOptions opts;
  opts.n = 4;
  opts.round_timeout = Millis(200);
  SailfishCluster cluster(opts);
  cluster.Start({1});  // Node 1 leads rounds 1, 5, 9, ...
  cluster.Run(Seconds(4));
  EXPECT_GE(cluster.node(0).LastCommittedRound(), 4);
  EXPECT_GT(cluster.node(0).committer().AnchorsSkipped(), 0u);
  cluster.ExpectAgreement();
}

TEST(Sailfish, LeaderAfterCrashCarriesJustification) {
  SailfishClusterOptions opts;
  opts.n = 4;
  opts.round_timeout = Millis(200);
  SailfishCluster cluster(opts);
  cluster.Start({1});
  cluster.Run(Seconds(4));
  // Find a leader vertex whose predecessor leader (node 1) crashed: it must
  // carry an NVC or TC for the skipped round.
  const DagStore& dag = cluster.node(0).dag();
  bool found_justified = false;
  for (Round r = 2; r <= 20; r += 4) {  // Rounds led by node 2 (r % 4 == 2).
    const Vertex* v = dag.Get(r, 2);
    if (v != nullptr && !v->HasStrongEdgeTo(1)) {
      EXPECT_TRUE(v->nvc.has_value() || v->tc.has_value())
          << "unjustified leader vertex at round " << r;
      if (v->nvc.has_value() || v->tc.has_value()) {
        found_justified = true;
      }
    }
  }
  EXPECT_TRUE(found_justified) << "expected at least one justified leader skip";
}

TEST(Sailfish, TwoCrashedNodesAtN7) {
  SailfishClusterOptions opts;
  opts.n = 7;
  opts.round_timeout = Millis(200);
  SailfishCluster cluster(opts);
  cluster.Start({2, 5});
  cluster.Run(Seconds(4));
  EXPECT_GE(cluster.node(0).LastCommittedRound(), 4);
  cluster.ExpectAgreement();
}

TEST(Sailfish, OrderedVerticesNeverDuplicate) {
  SailfishClusterOptions opts;
  SailfishCluster cluster(opts);
  cluster.Start();
  cluster.Run(Seconds(2));
  const auto& log = cluster.OrderedAt(0);
  std::set<std::pair<Round, NodeId>> unique(log.begin(), log.end());
  EXPECT_EQ(unique.size(), log.size());
}

TEST(Sailfish, CertSuppressionModeCommits) {
  SailfishClusterOptions opts;
  SailfishCluster cluster = [] {
    SailfishClusterOptions o;
    return SailfishCluster(o);
  }();
  // Default cluster already runs with multicast_cert=true; build another via
  // scenario-level coverage in integration tests. Here just assert the
  // default works (sanity baseline for the ablation).
  cluster.Start();
  cluster.Run(Seconds(1));
  EXPECT_GE(cluster.node(0).LastCommittedRound(), 1);
}

// A node stuck in a round re-offers its latest VAL on every repeat of the
// round timer, but the timer re-arms only 64 times per round: a node cut off
// from every peer stops, and the simulator drains.
TEST(Sailfish, IsolatedNodeRebroadcastsValAtMost64TimesThenDrains) {
  SailfishCluster cluster{SailfishClusterOptions{}};
  uint32_t vals_to_peer = 0;
  cluster.network().SetAdversary([&](NodeId from, NodeId to, MsgType type, TimeMicros) {
    if (from == 0 && to == 1 && type == kConsVertexVal) {
      ++vals_to_peer;
    }
    return kDropMessage;
  });
  cluster.Start({1, 2, 3});
  cluster.scheduler().RunUntilIdle(/*max_events=*/1000000);
  EXPECT_TRUE(cluster.scheduler().Idle());
  EXPECT_EQ(cluster.node(0).CurrentRound(), 0u);  // One stuck round.
  EXPECT_EQ(vals_to_peer, 1u + 64u);              // The proposal, then 64 re-broadcasts.
}

}  // namespace
}  // namespace clandag
