// Snapshot subsystem tests (DESIGN.md §14).
//
// Unit level: SnapshotStore atomic write / rotate / fallback chain under
// injected torn writes and corruption, WAL compaction against a snapshot
// mark, bounded replay after a cut.
//
// Integration level (deterministic simulation): a checkpointing node
// restarts replaying only the WAL suffix past its last durable snapshot; a
// deep-lagging peer whose gap fell below everyone's pruned horizon catches
// up through the chunked snapshot transfer; a node whose snapshot files are
// lost degrades to floor-only recovery and rejoins; every path preserves the
// cluster's total order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "recording_cluster.h"
#include "sync/snapshot.h"
#include "sync/wal.h"
#include "sync/wal_vertex_store.h"

namespace clandag {
namespace {

// ---- SnapshotStore ----

class SnapshotStoreTest : public ::testing::Test {
 protected:
  SnapshotStoreTest() {
    base_ = ::testing::TempDir() + "/clandag_snap_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".snap";
    RemoveAll();
  }
  ~SnapshotStoreTest() override { RemoveAll(); }

  void RemoveAll() {
    std::remove(base_.c_str());
    std::remove((base_ + ".prev").c_str());
    std::remove((base_ + ".tmp").c_str());
  }

  static SnapshotData MakeSnap(uint64_t seq) {
    SnapshotData snap;
    snap.seq = seq;
    snap.last_committed = 10 * seq;
    snap.order_count = 40 * seq;
    snap.dag_floor = 10 * seq > 4 ? 10 * seq - 4 : 0;
    snap.propose_floor = 10 * seq + 1;
    snap.initial_balance = 1000;
    snap.balances = {{0, 990}, {3, 1010}};
    snap.state_digest = Digest::Of(ToBytes("state" + std::to_string(seq)));
    snap.executed_txs = 5 * seq;
    snap.rejected_txs = seq;
    Vertex v;
    v.round = 10 * seq;
    v.source = 2;
    v.strong_edges = {StrongEdge{1, Digest::Of(ToBytes("parent"))}};
    snap.vertices.push_back(v);
    snap.ordered.push_back(1);
    return snap;
  }

  static void ExpectEqual(const SnapshotData& a, const SnapshotData& b) {
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.last_committed, b.last_committed);
    EXPECT_EQ(a.order_count, b.order_count);
    EXPECT_EQ(a.dag_floor, b.dag_floor);
    EXPECT_EQ(a.propose_floor, b.propose_floor);
    EXPECT_EQ(a.initial_balance, b.initial_balance);
    EXPECT_EQ(a.balances, b.balances);
    EXPECT_EQ(a.state_digest, b.state_digest);
    EXPECT_EQ(a.executed_txs, b.executed_txs);
    EXPECT_EQ(a.rejected_txs, b.rejected_txs);
    ASSERT_EQ(a.vertices.size(), b.vertices.size());
    for (size_t i = 0; i < a.vertices.size(); ++i) {
      EXPECT_EQ(a.vertices[i], b.vertices[i]);
    }
    EXPECT_EQ(a.ordered, b.ordered);
  }

  // Flips one byte in the middle of `path`.
  static void CorruptFile(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_GT(size, 16);
    std::fseek(f, size / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }

  std::string base_;
};

TEST_F(SnapshotStoreTest, WriteLoadRoundTrips) {
  const SnapshotData snap = MakeSnap(1);
  {
    SnapshotStore store(base_);
    ASSERT_TRUE(store.Write(snap));
    ASSERT_NE(store.serve_state(), nullptr);
    EXPECT_EQ(store.serve_state()->seq, 1u);
    EXPECT_EQ(store.NextSeq(), 2u);
  }
  SnapshotStore store(base_);
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->from_prev);
  ExpectEqual(loaded->data, snap);
  EXPECT_EQ(store.NextSeq(), 2u);
  ASSERT_NE(store.serve_state(), nullptr);
  EXPECT_EQ(store.serve_state()->order_count, snap.order_count);
}

TEST_F(SnapshotStoreTest, LoadWithNoFilesReturnsNothing) {
  SnapshotStore store(base_);
  EXPECT_FALSE(store.Load().has_value());
  EXPECT_EQ(store.serve_state(), nullptr);
  EXPECT_EQ(store.NextSeq(), 1u);
}

TEST_F(SnapshotStoreTest, SecondWriteRotatesFirstToPrev) {
  SnapshotStore store(base_);
  ASSERT_TRUE(store.Write(MakeSnap(1)));
  ASSERT_TRUE(store.Write(MakeSnap(2)));

  SnapshotStore reader(base_);
  auto loaded = reader.Load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.seq, 2u);
  EXPECT_FALSE(loaded->from_prev);

  // The rotated .prev still holds seq 1 intact.
  SnapshotStore prev_only(base_ + ".gone");
  std::rename((base_ + ".prev").c_str(), (base_ + ".gone.prev").c_str());
  auto prev = prev_only.Load();
  ASSERT_TRUE(prev.has_value());
  EXPECT_TRUE(prev->from_prev);
  EXPECT_EQ(prev->data.seq, 1u);
  std::remove((base_ + ".gone.prev").c_str());
}

TEST_F(SnapshotStoreTest, CorruptCurrentFallsBackToPrev) {
  {
    SnapshotStore store(base_);
    ASSERT_TRUE(store.Write(MakeSnap(1)));
    ASSERT_TRUE(store.Write(MakeSnap(2)));
  }
  CorruptFile(base_);
  SnapshotStore store(base_);
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->from_prev);
  ExpectEqual(loaded->data, MakeSnap(1));
}

TEST_F(SnapshotStoreTest, TornTmpWriteLeavesPriorSnapshotIntact) {
  SnapshotStore store(base_);
  ASSERT_TRUE(store.Write(MakeSnap(1)));
  store.SetWriteFault([](uint64_t seq) {
    return seq == 2 ? SnapshotWriteFault::kTornTmp : SnapshotWriteFault::kNone;
  });
  EXPECT_FALSE(store.Write(MakeSnap(2)));

  // Restart: the half-written temp must not shadow the good current file.
  SnapshotStore reopened(base_);
  auto loaded = reopened.Load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->from_prev);
  EXPECT_EQ(loaded->data.seq, 1u);
}

TEST_F(SnapshotStoreTest, SkipRenameWriteLeavesPriorSnapshotIntact) {
  SnapshotStore store(base_);
  ASSERT_TRUE(store.Write(MakeSnap(1)));
  store.SetWriteFault(
      [](uint64_t) { return SnapshotWriteFault::kSkipRename; });
  EXPECT_FALSE(store.Write(MakeSnap(2)));

  SnapshotStore reopened(base_);
  auto loaded = reopened.Load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.seq, 1u);
}

TEST_F(SnapshotStoreTest, CorruptPayloadWriteFallsBackOnLoad) {
  SnapshotStore store(base_);
  ASSERT_TRUE(store.Write(MakeSnap(1)));
  store.SetWriteFault([](uint64_t seq) {
    return seq == 2 ? SnapshotWriteFault::kCorruptPayload : SnapshotWriteFault::kNone;
  });
  // Bit rot is invisible at write time (the rename lands, the in-memory
  // serve state holds the good bytes) ...
  EXPECT_TRUE(store.Write(MakeSnap(2)));
  ASSERT_NE(store.serve_state(), nullptr);
  EXPECT_EQ(store.serve_state()->seq, 2u);

  // ... but a restart's checksum verification rejects it and degrades to
  // the rotated previous snapshot.
  SnapshotStore reopened(base_);
  auto loaded = reopened.Load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->from_prev);
  EXPECT_EQ(loaded->data.seq, 1u);
}

// ---- WAL compaction against a snapshot ----

Vertex MakeVertex(Round round, NodeId source) {
  Vertex v;
  v.round = round;
  v.source = source;
  return v;
}

class WalCutTest : public ::testing::Test {
 protected:
  WalCutTest() {
    path_ = ::testing::TempDir() + "/clandag_cut_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".wal";
    std::remove(path_.c_str());
  }
  ~WalCutTest() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(WalCutTest, CutToSnapshotBoundsReplay) {
  {
    WalVertexStore store(path_);
    ASSERT_TRUE(store.Load());
    store.AppendProposal(0);
    for (Round r = 0; r < 8; ++r) {
      store.AppendOrdered(MakeVertex(r, 0));
      store.AppendOrdered(MakeVertex(r, 1));
    }
    store.AppendAnchor(7);
    // 18 records; the snapshot covers all 16 order positions through round 7.
    const uint64_t dropped = store.CutToSnapshot(1, 16, 7);
    EXPECT_EQ(dropped, 18u);
    EXPECT_EQ(store.IndexedCount(), 0u);
    // Pruned history is no longer WAL-servable (the snapshot serves it now).
    EXPECT_FALSE(store.Lookup(3, 0).has_value());
    // Appends after the cut land in the fresh log.
    store.AppendOrdered(MakeVertex(8, 0));
    store.AppendAnchor(8);
  }
  WalVertexStore reopened(path_);
  ASSERT_TRUE(reopened.Load());
  const RecoveryState& rec = reopened.recovery();
  EXPECT_EQ(rec.records, 3u);  // mark + one vertex + one anchor: bounded.
  EXPECT_EQ(rec.snapshot_seq, 1u);
  EXPECT_EQ(rec.order_base, 16u);
  EXPECT_EQ(rec.snapshot_committed, 7);
  EXPECT_EQ(rec.last_committed, 8);
  ASSERT_EQ(rec.ordered.size(), 1u);
  EXPECT_EQ(rec.ordered[0].round, 8u);
}

// ---- Integration: checkpointing cluster over the simulator ----

using SnapCluster = RecordingCluster;

TEST(SnapshotIntegration, RestartReplaysOnlyRecordsPastLastSnapshot) {
  SnapCluster::Options opts;
  opts.snapshot_interval = 4;
  // Wide in-memory horizon and a short outage: the gap stays fetchable, so
  // this exercises the pure WAL-continuation path (no install).
  opts.gc_depth = 64;
  SnapCluster cluster(opts);
  constexpr NodeId kVictim = 3;

  cluster.StartAll();
  cluster.RunUntil(Seconds(6));
  const size_t full_history = cluster.Ordered(kVictim).size();
  ASSERT_GT(full_history, 100u) << "need a meaningful history before the crash";
  cluster.Crash(kVictim);
  cluster.RunUntil(Millis(6500));
  AppNode& restarted = cluster.Restart(kVictim);

  const RecoveryStats& rec = restarted.recovery_stats();
  EXPECT_TRUE(rec.recovered);
  EXPECT_TRUE(rec.from_snapshot);
  EXPECT_GT(rec.snapshot_seq, 0u);
  EXPECT_GT(rec.order_base, 0u);
  EXPECT_GT(rec.snapshot_vertices, 0u);
  // The whole point: replay is bounded by the checkpoint interval, not the
  // node's lifetime. The WAL held only the records past the last snapshot.
  EXPECT_LT(rec.wal_records, full_history / 2)
      << "WAL replay was not bounded by the snapshot";
  // The snapshot base + WAL suffix reconstructs the position count. A crash
  // in the gap between a snapshot write and its WAL cut can leave the
  // snapshot covering a few positions past the mark, hence >= not ==.
  EXPECT_GE(restarted.TotalOrderPosition(), rec.order_base + rec.restored_vertices);
  EXPECT_LE(restarted.TotalOrderPosition(), full_history);

  // The replayed suffix sits at exactly the global positions it had in the
  // first life, and the live stream continues from there in lockstep with a
  // node that never restarted.
  const RecoveryState& state = cluster.Recovered(kVictim);
  const OrderLog& reference = cluster.Ordered(0);
  for (size_t i = 0; i < state.ordered.size(); ++i) {
    ASSERT_LT(rec.order_base + i, reference.size());
    EXPECT_EQ(std::make_pair(state.ordered[i].round, state.ordered[i].source),
              reference[rec.order_base + i]);
  }

  cluster.RunUntil(Seconds(12));
  const int64_t victim = restarted.consensus().LastCommittedRound();
  const int64_t peer = cluster.node(0).consensus().LastCommittedRound();
  EXPECT_GE(victim + 4, peer) << "restarted node failed to close the gap";

  // No install happened (the gap never left the fetchable window), so the
  // live stream continues at exactly base + prefix, position for position.
  ASSERT_TRUE(cluster.Installs(kVictim).empty());
  const OrderLog& live = cluster.RestartOrdered(kVictim);
  const size_t base = rec.order_base + state.ordered.size();
  ASSERT_GT(live.size(), 0u);
  for (size_t i = 0; i < live.size() && base + i < reference.size(); ++i) {
    ASSERT_EQ(live[i], reference[base + i]) << "post-restart divergence at " << i;
  }
}

TEST(SnapshotIntegration, DeepLaggardCatchesUpViaSnapshotTransfer) {
  SnapCluster::Options opts;
  opts.gc_depth = 8;  // Tight horizon: a multi-second outage falls below it.
  opts.snapshot_interval = 4;
  SnapCluster cluster(opts);
  constexpr NodeId kLaggard = 3;

  cluster.StartAll();
  cluster.RunUntil(Seconds(2));
  cluster.Crash(kLaggard);
  cluster.RunUntil(Seconds(8));  // Peers commit far past the laggard's WAL.
  AppNode& restarted = cluster.Restart(kLaggard);
  cluster.RunUntil(Seconds(14));

  // The gap was repaired by a chunked snapshot transfer, not vertex fetch.
  const SyncStats stats = restarted.sync_stats();
  EXPECT_GE(stats.snapshots_installed, 1u) << "laggard never installed a snapshot";
  const SyncStats total = cluster.TotalSyncStats();
  EXPECT_GT(total.snapshot_offers_sent, 0u);
  EXPECT_GT(total.snapshot_chunks_served, 0u);

  const int64_t laggard = restarted.consensus().LastCommittedRound();
  const int64_t peer = cluster.node(0).consensus().LastCommittedRound();
  EXPECT_GE(laggard + 4, peer) << "laggard failed to catch up";

  // Entries ordered after the install line up with the reference log at the
  // snapshot's global order base.
  const std::vector<SnapCluster::Install>& installs = cluster.Installs(kLaggard);
  ASSERT_FALSE(installs.empty());
  const SnapCluster::Install last = installs.back();
  const OrderLog& live = cluster.RestartOrdered(kLaggard);
  const OrderLog& reference = cluster.Ordered(0);
  ASSERT_GT(live.size(), last.live_at_install);
  for (size_t i = last.live_at_install; i < live.size(); ++i) {
    const size_t pos = last.order_count + (i - last.live_at_install);
    if (pos >= reference.size()) {
      break;
    }
    ASSERT_EQ(live[i], reference[pos]) << "post-install divergence at " << i;
  }
}

TEST(SnapshotIntegration, LostSnapshotFilesDegradeToFloorOnlyThenRepair) {
  SnapCluster::Options opts;
  opts.snapshot_interval = 4;
  opts.gc_depth = 8;  // The outage below leaves a gap only a snapshot closes.
  SnapCluster cluster(opts);
  constexpr NodeId kVictim = 3;

  cluster.StartAll();
  cluster.RunUntil(Seconds(6));
  cluster.Crash(kVictim);
  // Both snapshot files vanish (disk swap, operator error): the WAL's mark
  // points at a snapshot that no longer exists.
  cluster.DeleteSnapshots(kVictim);
  cluster.RunUntil(Seconds(8));
  AppNode& restarted = cluster.Restart(kVictim);

  const RecoveryStats& rec = restarted.recovery_stats();
  EXPECT_TRUE(rec.recovered);
  EXPECT_FALSE(rec.from_snapshot);  // Nothing to install: floor-only.
  EXPECT_GT(rec.order_base, 0u);    // But the mark still anchors positions.

  cluster.RunUntil(Seconds(14));
  const int64_t victim = restarted.consensus().LastCommittedRound();
  const int64_t peer = cluster.node(0).consensus().LastCommittedRound();
  EXPECT_GE(victim + 4, peer) << "degraded node failed to rejoin";

  // The lost execution state is repaired by a peer-served snapshot (the node
  // is deep behind after the outage), and the post-install stream agrees
  // with the cluster position for position.
  EXPECT_GE(restarted.sync_stats().snapshots_installed, 1u);
  const std::vector<SnapCluster::Install>& installs = cluster.Installs(kVictim);
  ASSERT_FALSE(installs.empty());
  const SnapCluster::Install last = installs.back();
  const OrderLog& reference = cluster.Ordered(0);
  const OrderLog& live = cluster.RestartOrdered(kVictim);
  ASSERT_GT(live.size(), last.live_at_install);
  for (size_t i = last.live_at_install; i < live.size(); ++i) {
    const size_t pos = last.order_count + (i - last.live_at_install);
    if (pos >= reference.size()) {
      break;
    }
    ASSERT_EQ(live[i], reference[pos]) << "post-repair divergence at " << i;
  }
}

TEST(SnapshotIntegration, CrashDuringCheckpointWriteRecoversFromPrior) {
  SnapCluster::Options opts;
  opts.snapshot_interval = 4;
  SnapCluster cluster(opts);
  constexpr NodeId kVictim = 3;

  cluster.StartAll();
  cluster.RunUntil(Seconds(6));
  cluster.Crash(kVictim);
  // Simulate the torn checkpoint the crash would have left: a garbage .tmp
  // next to the intact current file must never shadow it.
  {
    std::FILE* f = std::fopen((cluster.SnapPath(kVictim) + ".tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("half a snapsh", f);
    std::fclose(f);
  }
  cluster.RunUntil(Seconds(7));
  AppNode& restarted = cluster.Restart(kVictim);

  const RecoveryStats& rec = restarted.recovery_stats();
  EXPECT_TRUE(rec.recovered);
  EXPECT_TRUE(rec.from_snapshot);

  cluster.RunUntil(Seconds(12));
  EXPECT_GE(restarted.consensus().LastCommittedRound() + 4,
            cluster.node(0).consensus().LastCommittedRound());
}

}  // namespace
}  // namespace clandag
