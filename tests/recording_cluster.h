// A simulated AppNode cluster for the state-sync and snapshot integration
// tests: per-node WALs, optional Byzantine members and checkpointing, and
// crash/restart through the cluster builder (a crashed node is kept as a
// zombie so its scheduled callbacks stay valid). It records, per node, one
// ordered log per life, the last recovered WAL state and every snapshot
// install, so tests can line a restarted node up against the others.

#ifndef CLANDAG_TESTS_RECORDING_CLUSTER_H_
#define CLANDAG_TESTS_RECORDING_CLUSTER_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/byzantine.h"
#include "core/cluster.h"

namespace clandag {

using OrderLog = std::vector<std::pair<Round, NodeId>>;

class RecordingCluster {
 public:
  struct Options {
    uint32_t n = 4;
    TimeMicros round_timeout = Millis(300);
    Round gc_depth = 16;
    bool use_wal = true;
    Round snapshot_interval = 0;
    uint32_t txs_per_node = 300;
    std::set<ByzantineBehavior> behaviors;
    std::vector<NodeId> byzantine;
    uint32_t withhold_keep = UINT32_MAX;
  };

  // One on_snapshot_installed event: the snapshot's global order base and
  // how many live entries the node's current log held at that instant.
  struct Install {
    uint64_t order_count = 0;
    size_t live_at_install = 0;
  };

  explicit RecordingCluster(Options opts)
      : opts_(std::move(opts)), lives_(opts_.n), recovered_(opts_.n), cluster_(ClusterOptions()) {}

  void StartAll() { cluster_.Start(); }
  void RunUntil(TimeMicros t) { cluster_.scheduler().RunUntil(t); }
  void Crash(NodeId id) { cluster_.Crash(id); }
  // A fresh AppNode over the same identity and WAL; its live ordered stream
  // lands in RestartOrdered(id).
  AppNode& Restart(NodeId id) { return cluster_.Restart(id); }

  AppNode& node(NodeId id) { return cluster_.app(id); }
  SimNetwork& network() { return cluster_.network(); }
  const OrderLog& Ordered(NodeId id) const { return lives_[id].front(); }
  const OrderLog& RestartOrdered(NodeId id) { return lives_[id].back(); }
  const RecoveryState& Recovered(NodeId id) const { return recovered_[id]; }
  const std::vector<Install>& Installs(NodeId id) { return installs_[id]; }

  std::string SnapPath(NodeId id) const { return cluster_.WalPath(id) + ".snap"; }
  void DeleteSnapshots(NodeId id) {
    std::remove(SnapPath(id).c_str());
    std::remove((SnapPath(id) + ".prev").c_str());
  }

  bool IsByzantine(NodeId id) const {
    return std::find(opts_.byzantine.begin(), opts_.byzantine.end(), id) !=
           opts_.byzantine.end();
  }

  SyncStats TotalSyncStats() {
    SyncStats total;
    for (NodeId id = 0; id < opts_.n; ++id) {
      total += cluster_.app(id).sync_stats();
    }
    return total;
  }

  // The shared committed prefix: `a` and `b` must agree where they overlap.
  static void ExpectPrefixConsistent(const OrderLog& a, const OrderLog& b) {
    const size_t common = std::min(a.size(), b.size());
    for (size_t i = 0; i < common; ++i) {
      ASSERT_EQ(a[i], b[i]) << "order divergence at position " << i;
    }
  }

 private:
  Cluster::Options ClusterOptions() {
    Cluster::Options options;
    options.num_nodes = opts_.n;
    if (opts_.use_wal) {
      options.wal_dir = ::testing::TempDir();
    }
    options.wrap = [this](NodeId id, RuntimeStack& stack) {
      if (IsByzantine(id)) {
        stack.Push<ByzantineRuntime>(opts_.behaviors).SetWithholdKeep(opts_.withhold_keep);
      }
    };
    options.setup = [this](NodeId id, Cluster::NodeSetup& setup) {
      setup.options.consensus.round_timeout = opts_.round_timeout;
      setup.options.consensus.gc_depth = opts_.gc_depth;
      setup.options.snapshot_interval_rounds = opts_.snapshot_interval;
      OrderLog* log = &lives_[id].emplace_back();
      setup.callbacks.on_ordered = [log](const Vertex& v) { log->push_back({v.round, v.source}); };
      setup.callbacks.on_recovered = [this, id](const RecoveryState& state) {
        recovered_[id] = state;
      };
      setup.callbacks.on_snapshot_installed = [this, id, log](const SnapshotData& snap) {
        installs_[id].push_back(Install{snap.order_count, log->size()});
      };
      for (uint64_t i = 0; i < opts_.txs_per_node; ++i) {
        setup.preload.emplace_back(id * 100000 + i, Bytes(64, 0x5a));
      }
    };
    return options;
  }

  Options opts_;
  std::vector<std::deque<OrderLog>> lives_;
  std::vector<RecoveryState> recovered_;
  std::map<NodeId, std::vector<Install>> installs_;
  Cluster cluster_;
};

}  // namespace clandag

#endif  // CLANDAG_TESTS_RECORDING_CLUSTER_H_
