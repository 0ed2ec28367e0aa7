#include "fault/chaos.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/byzantine.h"
#include "core/cluster.h"
#include "fault/fault_runtime.h"
#include "fault/oracles.h"
#include "ingress/load_gen.h"

namespace clandag {
namespace {

// Transactions preloaded into each node's mempool when ingress is off.
constexpr uint32_t kTxsPerNode = 100;
// Rounds the honest commit frontier must advance after the plan heals.
constexpr Round kMinPostHealProgress = 3;
// Load-generator pump interval in ingress mode.
constexpr TimeMicros kIngressPoll = Millis(10);

// A simulated AppNode cluster driven by one FaultPlan. Crash and restart go
// through the cluster builder's zombie pattern: a crashed node's objects stay
// alive (its scheduled callbacks remain valid) but its oracle taps are
// deactivated and the network drops its traffic; restart builds a fresh
// stack over the same identity and WAL.
class ChaosCluster {
 public:
  ChaosCluster(const FaultPlan& plan, const ChaosOptions& opts)
      : plan_(plan),
        opts_(opts),
        injector_(plan),
        safety_(plan.num_nodes),
        liveness_(plan.num_nodes),
        active_(plan.num_nodes),
        snapshot_fault_used_(plan.snapshots.size(), false),
        cluster_(MakeClusterOptions()),
        scheduler_(cluster_.scheduler()) {
    for (const ByzantineAssignment& b : plan_.byzantine) {
      safety_.SetFaulty(b.node, true);
    }
    // Fault schedule. Ties at one timestamp fire in scheduling order, so the
    // heal marker is registered last: at HealTime() every restart has
    // already happened when the liveness frontier is snapshotted.
    for (const CrashFault& c : plan_.crashes) {
      scheduler_.ScheduleCallbackAt(c.crash_at, [this, node = c.node] { Crash(node); });
      if (c.Restarts()) {
        scheduler_.ScheduleCallbackAt(c.restart_at,
                                      [this, node = c.node] { cluster_.Restart(node); });
      }
    }
    for (size_t i = 0; i < plan_.snapshots.size(); ++i) {
      const SnapshotFault& sf = plan_.snapshots[i];
      if (sf.kind == SnapshotFaultKind::kCorruptOnDisk) {
        scheduler_.ScheduleCallbackAt(
            sf.at, [this, node = sf.node] { CorruptSnapshotOnDisk(node); });
      }
    }
    scheduler_.ScheduleCallbackAt(plan_.HealTime(), [this] { liveness_.MarkHealed(); });

    if (opts_.use_ingress) {
      executed_ids_.resize(plan_.num_nodes);
      for (NodeId id = 0; id < plan_.num_nodes; ++id) {
        LoadGenOptions lg;
        lg.seed = plan_.seed ^ ((id + 1) * 0x9e3779b97f4a7c15ULL);
        lg.num_clients = opts_.ingress_clients_per_node;
        // Disjoint per-node client-id spaces: with dedup state per serving
        // node, cross-node collisions would be indistinguishable from
        // genuine duplicates.
        lg.client_id_base = id << 24;
        lg.offered_load_tps = opts_.ingress_load_tps;
        // bounded: one load generator per node.
        loadgens_.push_back(std::make_unique<OpenLoopLoadGen>(lg, 0));
        SchedulePump(id);
      }
    }
  }

  ChaosReport Run() {
    cluster_.Start();
    const TimeMicros end =
        std::max(plan_.horizon, plan_.HealTime() + opts_.post_heal_run);
    scheduler_.RunUntil(end);

    ChaosReport report;
    report.seed = plan_.seed;
    report.plan_summary = plan_.Describe();
    report.injected = injector_.Stats();
    report.final_committed_round = liveness_.MaxCommitted();
    report.per_node_committed = liveness_.PerNodeCommitted();
    for (NodeId id = 0; id < plan_.num_nodes; ++id) {
      report.per_node_round.push_back(cluster_.app(id).consensus().CurrentRound());
    }
    report.honest_ordered = safety_.TotalOrdered();
    report.restarts_recovered = restarts_recovered_;
    for (NodeId id = 0; id < plan_.num_nodes; ++id) {
      const SyncStats stats = cluster_.app(id).sync_stats();
      report.snapshots_written += stats.snapshots_written;
      report.snapshots_installed += stats.snapshots_installed;
    }
    for (const auto& gen : loadgens_) {
      report.ingress_committed += gen->stats().committed;
      report.ingress_expired += gen->stats().expired;
      report.ingress_rejected += gen->stats().rate_rejected + gen->stats().capacity_rejected;
      report.ingress_duplicate_replies += gen->stats().duplicate_replies;
    }
    report.duplicate_executions = duplicate_executions_;

    const std::string safety_err = safety_.Check();
    report.safety_ok = safety_err.empty();
    std::vector<NodeId> required;
    for (NodeId id = 0; id < plan_.num_nodes; ++id) {
      if (!plan_.IsByzantine(id) && !plan_.PermanentlyCrashed(id)) {
        required.push_back(id);
      }
    }
    const std::string liveness_err =
        liveness_.Check(kMinPostHealProgress, required);
    report.liveness_ok = liveness_err.empty();
    report.ok = report.safety_ok && report.liveness_ok;
    if (!report.ok) {
      report.error = (report.safety_ok ? "liveness: " + liveness_err
                                       : "safety: " + safety_err) +
                     " [replay with seed " + std::to_string(plan_.seed) + "; plan: " +
                     report.plan_summary + "]";
    } else if (duplicate_executions_ > 0) {
      report.ok = false;
      report.error = "ingress: " + std::to_string(duplicate_executions_) +
                     " client request(s) executed in two different blocks "
                     "[replay with seed " + std::to_string(plan_.seed) + "; plan: " +
                     report.plan_summary + "]";
    }
    return report;
  }

 private:
  Cluster::Options MakeClusterOptions() {
    Cluster::Options options;
    options.num_nodes = plan_.num_nodes;
    if (opts_.use_wal) {
      options.wal_dir = opts_.wal_dir.empty() ? TempDir() : opts_.wal_dir;
    }
    options.wrap = [this](NodeId id, RuntimeStack& stack) {
      stack.Push<FaultInjectingRuntime>(injector_);
      for (const ByzantineAssignment& b : plan_.byzantine) {
        if (b.node == id) {
          stack.Push<ByzantineRuntime>(b.behaviors);
          break;
        }
      }
    };
    options.setup = [this](NodeId id, Cluster::NodeSetup& setup) { SetupNode(id, setup); };
    return options;
  }

  // Runs on every build of node `id`. Each life gets a fresh `active` flag
  // that gates its oracle taps, so a zombie's leftover callbacks never
  // pollute the logs after its successor restarts.
  void SetupNode(NodeId id, Cluster::NodeSetup& setup) {
    const auto active = std::make_shared<bool>(true);
    active_[id] = active;
    AppNodeOptions& options = setup.options;
    AppNodeCallbacks& callbacks = setup.callbacks;
    options.consensus.round_timeout = opts_.round_timeout;
    options.consensus.gc_depth = opts_.gc_depth;
    if (opts_.use_wal && opts_.snapshot_interval_rounds > 0) {
      options.snapshot_interval_rounds = opts_.snapshot_interval_rounds;
      options.snapshot_write_fault = [this, id, active](uint64_t seq) {
        if (!*active) {
          return SnapshotWriteFault::kNone;
        }
        return SnapshotWriteFaultFor(id, seq);
      };
      options.snapshot_install_crash = [this, id, active](uint64_t seq) {
        if (!*active) {
          return false;
        }
        return MaybeCrashMidInstall(id, seq);
      };
      // A snapshot install replaces everything below the checkpoint: the
      // node's order log restarts at global position snap.order_count, and
      // its commit frontier jumps to the checkpointed round.
      callbacks.on_snapshot_installed = [this, id, active](const SnapshotData& snap) {
        if (!*active) {
          return;
        }
        safety_.ResetLog(id, {}, snap.order_count);
        liveness_.OnCommit(id, snap.last_committed);
      };
    }
    callbacks.on_ordered = [this, id, active](const Vertex& v) {
      if (!*active) {
        return;
      }
      safety_.OnOrdered(id, v.round, v.source);
      liveness_.OnCommit(id, v.round);
    };
    callbacks.on_completed = [this, id, active](const Vertex& v, const Digest& d) {
      if (!*active) {
        return;
      }
      safety_.OnCompleted(id, v.round, v.source, d);
    };
    callbacks.on_recovered = [this, id, active](const RecoveryState& state) {
      if (!*active) {
        return;
      }
      // The restarted node's total order resumes from its replayed committed
      // prefix; the oracle log is rebuilt so prefix consistency is checked
      // over the combined (recovered + live) sequence. With checkpointing the
      // prefix starts at the snapshot's global position, not zero.
      std::vector<std::pair<Round, NodeId>> prefix;
      prefix.reserve(state.ordered.size());
      for (const Vertex& v : state.ordered) {
        prefix.emplace_back(v.round, v.source);
        liveness_.OnCommit(id, v.round);
      }
      safety_.ResetLog(id, std::move(prefix), state.order_base);
      if (state.last_committed >= 0) {
        liveness_.OnCommit(id, static_cast<Round>(state.last_committed));
      }
      if (state.HasData()) {
        ++restarts_recovered_;
      }
    };

    if (opts_.use_ingress) {
      options.enable_ingress = true;
      options.ingress.batch_expiry = opts_.ingress_batch_expiry;
      callbacks.on_client_reply = [this, id, active](uint64_t, const ClientReplyMsg& reply) {
        if (!*active) {
          return;
        }
        loadgens_[id]->OnReply(reply, scheduler_.Now());
      };
      callbacks.on_receipt = [this, id, active](const ExecutionReceipt& receipt) {
        if (!*active) {
          return;
        }
        CheckNoDuplicateExecution(id, receipt);
        // Gossip the receipt to live peers across open links; each front
        // end keeps only receipts for its own proposals. Direct calls stand
        // in for the kClientReply gossip frames the TCP driver would send,
        // but still respect crash and partition state.
        for (NodeId peer = 0; peer < plan_.num_nodes; ++peer) {
          if (peer == id || !*active_[peer]) {
            continue;
          }
          if (injector_.Partitioned(id, peer, scheduler_.Now())) {
            continue;
          }
          cluster_.app(peer).OnExecutorReceipt(id, receipt);
        }
      };
    } else {
      for (uint64_t i = 0; i < kTxsPerNode; ++i) {
        setup.preload.emplace_back(static_cast<uint64_t>(id) * 100000 + i, Bytes(64, 0x5a));
      }
    }
  }

  // Pumps one node's load generator: clients keep sending on their open-loop
  // schedule whether or not the node is up; frames aimed at a crashed node
  // are simply lost in flight.
  void SchedulePump(NodeId id) {
    scheduler_.ScheduleCallbackAt(scheduler_.Now() + kIngressPoll, [this, id] {
      std::vector<Bytes> frames = loadgens_[id]->Poll(scheduler_.Now());
      if (*active_[id]) {
        for (const Bytes& frame : frames) {
          cluster_.app(id).SubmitClientRequest(frame);
        }
      }
      SchedulePump(id);
    });
  }

  // Oracle: a client request (packed id) executed in two *different* blocks
  // means the dedup window failed end to end — a retry was re-batched.
  // Re-executing the same (round, proposer) block (WAL replay after restart)
  // is legitimate and not counted.
  void CheckNoDuplicateExecution(NodeId id, const ExecutionReceipt& receipt) {
    const BlockInfo* block =
        cluster_.app(id).consensus().disseminator().GetBlock(receipt.proposer, receipt.round);
    if (block == nullptr) {
      return;
    }
    auto txs = DecodeTxBatch(block->payload);
    if (!txs.has_value()) {
      return;
    }
    const std::pair<Round, NodeId> slot{receipt.round, receipt.proposer};
    auto& seen = executed_ids_[id];
    for (const Transaction& tx : *txs) {
      auto [it, inserted] = seen.emplace(tx.id, slot);
      if (!inserted && it->second != slot) {
        ++duplicate_executions_;
      }
    }
  }

  void Crash(NodeId id) {
    cluster_.Crash(id);
    *active_[id] = false;
  }

  // Crash from inside the node's own call stack (a write-fault or install
  // hook). Safe inline under the zombie pattern — only the network and the
  // active flag flip; the object finishes its call as a zombie — with the
  // restart scheduled like a planned CrashFault.
  void CrashWithRestart(NodeId id, TimeMicros delay) {
    Crash(id);
    scheduler_.ScheduleCallbackAt(scheduler_.Now() + delay,
                                  [this, id] { cluster_.Restart(id); });
  }

  // Consumes the first unused seq-triggered snapshot fault for `node` whose
  // at_seq has been reached. Crash kinds also schedule the crash+restart;
  // the store then observes the matching torn/partial write.
  SnapshotWriteFault SnapshotWriteFaultFor(NodeId node, uint64_t seq) {
    for (size_t i = 0; i < plan_.snapshots.size(); ++i) {
      const SnapshotFault& sf = plan_.snapshots[i];
      if (snapshot_fault_used_[i] || sf.node != node || seq < sf.at_seq) {
        continue;
      }
      switch (sf.kind) {
        case SnapshotFaultKind::kTornWrite:
          snapshot_fault_used_[i] = true;
          CrashWithRestart(node, sf.restart_delay);
          return SnapshotWriteFault::kTornTmp;
        case SnapshotFaultKind::kSkipRename:
          snapshot_fault_used_[i] = true;
          CrashWithRestart(node, sf.restart_delay);
          return SnapshotWriteFault::kSkipRename;
        case SnapshotFaultKind::kCorruptPayload:
          snapshot_fault_used_[i] = true;
          return SnapshotWriteFault::kCorruptPayload;
        case SnapshotFaultKind::kCorruptOnDisk:
        case SnapshotFaultKind::kCrashMidInstall:
          break;  // Not write-time faults.
      }
    }
    return SnapshotWriteFault::kNone;
  }

  bool MaybeCrashMidInstall(NodeId node, uint64_t seq) {
    for (size_t i = 0; i < plan_.snapshots.size(); ++i) {
      const SnapshotFault& sf = plan_.snapshots[i];
      if (snapshot_fault_used_[i] || sf.node != node || seq < sf.at_seq ||
          sf.kind != SnapshotFaultKind::kCrashMidInstall) {
        continue;
      }
      snapshot_fault_used_[i] = true;
      CrashWithRestart(node, sf.restart_delay);
      return true;
    }
    return false;
  }

  // Flips one byte in the middle of the node's current snapshot file; the
  // next load must reject it by checksum and fall back (prev, then WAL).
  void CorruptSnapshotOnDisk(NodeId id) {
    const std::string path = cluster_.WalPath(id) + ".snap";
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    if (f == nullptr) {
      return;
    }
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    if (size > 16) {
      std::fseek(f, size / 2, SEEK_SET);
      int c = std::fgetc(f);
      if (c != EOF) {
        std::fseek(f, size / 2, SEEK_SET);
        std::fputc(c ^ 0x20, f);
      }
    }
    std::fclose(f);
  }

  const FaultPlan plan_;
  const ChaosOptions opts_;
  FaultInjector injector_;
  SafetyOracle safety_;
  LivenessOracle liveness_;
  // The current life's oracle gate per node (see SetupNode).
  std::vector<std::shared_ptr<bool>> active_;
  uint32_t restarts_recovered_ = 0;
  // One-shot consumption marks, parallel to plan_.snapshots.
  std::vector<bool> snapshot_fault_used_;

  // Ingress mode. Load generators persist across their node's restarts (the
  // client population is external to the server). executed_ids_ maps packed
  // request id -> the (round, proposer) block that executed it, per node.
  std::vector<std::unique_ptr<OpenLoopLoadGen>> loadgens_;
  std::vector<std::unordered_map<uint64_t, std::pair<Round, NodeId>>> executed_ids_;
  uint64_t duplicate_executions_ = 0;

  // Last: its construction runs the hooks above against initialized state.
  Cluster cluster_;
  Scheduler& scheduler_;
};

}  // namespace

ChaosReport RunChaosPlan(const FaultPlan& plan, const ChaosOptions& options) {
  ChaosCluster cluster(plan, options);
  return cluster.Run();
}

}  // namespace clandag
