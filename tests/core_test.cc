#include <gtest/gtest.h>

#include <utility>

#include "core/cluster.h"
#include "core/metrics.h"

namespace clandag {
namespace {

// ---- LatencyStats ----

TEST(LatencyStats, MeanIsWeighted) {
  LatencyStats stats;
  stats.Add(100.0, 1);
  stats.Add(200.0, 3);
  EXPECT_DOUBLE_EQ(stats.Mean(), 175.0);
  EXPECT_EQ(stats.TotalWeight(), 4u);
}

TEST(LatencyStats, PercentilesRespectWeights) {
  LatencyStats stats;
  stats.Add(10.0, 90);
  stats.Add(1000.0, 10);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 10.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(95), 1000.0);
}

TEST(LatencyStats, MinMax) {
  LatencyStats stats;
  stats.Add(5.0);
  stats.Add(1.0);
  stats.Add(9.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
}

TEST(LatencyStats, EmptyIsZero) {
  LatencyStats stats;
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(99), 0.0);
}

TEST(LatencyStats, ZeroWeightIgnored) {
  LatencyStats stats;
  stats.Add(42.0, 0);
  EXPECT_EQ(stats.TotalWeight(), 0u);
  EXPECT_EQ(stats.SampleCount(), 0u);
}

TEST(LatencyStats, InterleavedAddAndQuery) {
  LatencyStats stats;
  stats.Add(10.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 10.0);
  stats.Add(20.0);  // Add after a query re-sorts lazily.
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 20.0);
}

TEST(LatencyStats, MergeCombinesSamplesAndWeights) {
  LatencyStats a;
  a.Add(100.0, 1);
  LatencyStats b;
  b.Add(200.0, 3);
  a.Merge(b);
  EXPECT_EQ(a.TotalWeight(), 4u);
  EXPECT_EQ(a.SampleCount(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 175.0);
  EXPECT_DOUBLE_EQ(a.Min(), 100.0);
  EXPECT_DOUBLE_EQ(a.Max(), 200.0);
  // The merged-from side is untouched.
  EXPECT_EQ(b.TotalWeight(), 3u);
}

TEST(LatencyStats, MergeEmptyAndSelfAreNoOps) {
  LatencyStats stats;
  stats.Add(10.0, 2);
  LatencyStats empty;
  stats.Merge(empty);
  EXPECT_EQ(stats.TotalWeight(), 2u);
  stats.Merge(stats);  // Self-merge must not duplicate samples.
  EXPECT_EQ(stats.TotalWeight(), 2u);
  EXPECT_EQ(stats.SampleCount(), 1u);
  empty.Merge(stats);
  EXPECT_DOUBLE_EQ(empty.Mean(), 10.0);
}

TEST(LatencyStats, MergeAfterQueryKeepsPercentilesSorted) {
  LatencyStats a;
  a.Add(50.0);
  EXPECT_DOUBLE_EQ(a.Percentile(50), 50.0);  // Forces the sorted state.
  LatencyStats b;
  b.Add(1.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Percentile(0), 1.0);  // Merge re-marks as unsorted.
}

TEST(LatencyStats, ResetClearsEverything) {
  LatencyStats stats;
  stats.Add(42.0, 7);
  stats.Reset();
  EXPECT_EQ(stats.TotalWeight(), 0u);
  EXPECT_EQ(stats.SampleCount(), 0u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  stats.Add(5.0);  // Usable again after Reset.
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
}

TEST(FormatSyncStats, RendersAllCounters) {
  SyncStats s;
  s.requests_sent = 3;
  s.vertices_fetched = 12;
  s.wal_vertices_served = 5;
  const std::string text = FormatSyncStats(s);
  EXPECT_NE(text.find("req=3"), std::string::npos);
  EXPECT_NE(text.find("got=12"), std::string::npos);
  EXPECT_NE(text.find("wal=5"), std::string::npos);
}

// ---- AppNode on the simulated runtime ----

class AppNodeSimTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 4;

  AppNodeSimTest() : cluster_(ClusterOptions()) {}

  static Cluster::Options ClusterOptions() {
    Cluster::Options options;
    options.num_nodes = kNodes;
    options.sim_latency = Millis(5);
    options.setup = [](NodeId, Cluster::NodeSetup& setup) {
      setup.options.consensus.round_timeout = Millis(500);
    };
    return options;
  }

  AppNode& app(NodeId id) { return cluster_.app(id); }
  void StartAndRunUntil(TimeMicros t) {
    cluster_.Start();
    cluster_.scheduler().RunUntil(t);
  }

  Cluster cluster_;
};

TEST_F(AppNodeSimTest, TransactionsExecuteEverywhereIdentically) {
  for (uint64_t t = 0; t < 10; ++t) {
    app(0).SubmitTransaction(t, EncodeTransfer(1, 2, 10));
  }
  StartAndRunUntil(Seconds(2));
  for (NodeId id = 0; id < kNodes; ++id) {
    EXPECT_EQ(app(id).execution().ExecutedTxs(), 10u) << "node " << id;
    EXPECT_EQ(app(id).execution().BalanceOf(1), 1'000'000u - 100u);
    EXPECT_EQ(app(id).execution().BalanceOf(2), 1'000'000u + 100u);
  }
  const Digest reference = app(0).execution().StateDigest();
  for (NodeId id = 1; id < kNodes; ++id) {
    EXPECT_EQ(app(id).execution().StateDigest(), reference);
  }
}

TEST_F(AppNodeSimTest, ConcurrentSubmittersAllExecute) {
  for (NodeId id = 0; id < kNodes; ++id) {
    for (uint64_t t = 0; t < 5; ++t) {
      app(id).SubmitTransaction(id * 100 + t, EncodeTransfer(3, 4, 1));
    }
  }
  StartAndRunUntil(Seconds(2));
  for (NodeId id = 0; id < kNodes; ++id) {
    EXPECT_EQ(app(id).execution().ExecutedTxs(), 20u) << "node " << id;
  }
}

TEST_F(AppNodeSimTest, OrderedVerticesCount) {
  StartAndRunUntil(Seconds(1));
  EXPECT_GT(app(0).OrderedVertices(), 10u);
}

// Two clans of four (node i in clan i % 2): transactions proposed by a clan-0
// node execute on clan 0 only, identically on each of its members.
TEST(ClusterTest, MultiClanExecutesOnlyInProposersClan) {
  Cluster::Options options;
  options.num_nodes = 8;
  options.clans = 2;
  options.setup = [](NodeId id, Cluster::NodeSetup& setup) {
    if (id == 0) {
      for (uint64_t t = 0; t < 10; ++t) {
        setup.preload.emplace_back(t, EncodeTransfer(1, 2, 10));
      }
    }
  };
  Cluster cluster(std::move(options));
  ASSERT_EQ(cluster.topology().num_clans(), 2u);
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(3));
  const Digest reference = cluster.app(0).execution().StateDigest();
  for (NodeId id = 0; id < 8; ++id) {
    const bool in_clan = cluster.topology().ClanIndexOf(id) == 0;
    EXPECT_EQ(cluster.app(id).execution().ExecutedTxs(), in_clan ? 10u : 0u) << "node " << id;
    if (in_clan) {
      EXPECT_EQ(cluster.app(id).execution().StateDigest(), reference) << "node " << id;
    }
  }
}

}  // namespace
}  // namespace clandag
