// AppNode: the library's top-level building block for applications.
//
// Wires a SailfishNode, a real Mempool, and an ExecutionEngine over any
// Runtime (simulated or TCP). Clients submit raw transactions; the node
// proposes them (when its role allows), and — if it belongs to the clan
// serving a proposer — executes ordered blocks in order and emits receipts
// for client reply matching.
//
// Execution strictly follows the total order: an ordered vertex whose block
// has not arrived yet (Byzantine-sender download path) stalls the execution
// queue, never the consensus.
//
// Threading: an AppNode is owned by its Runtime's event-loop thread. All
// entry points (OnMessage, SubmitTransaction, Start) must be invoked on that
// thread — post them via TcpRuntime::Post from elsewhere. Accessors like
// execution() are safe to read from a driver thread only after Stop()/join
// of the transport.

#ifndef CLANDAG_CORE_APP_NODE_H_
#define CLANDAG_CORE_APP_NODE_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/work_pool.h"
#include "consensus/sailfish.h"
#include "ingress/front_end.h"
#include "smr/execution.h"
#include "smr/mempool.h"
#include "sync/snapshot.h"
#include "sync/wal_vertex_store.h"

namespace clandag {

struct AppNodeOptions {
  SailfishConfig consensus;
  // Non-empty = persist consensus output to this WAL and replay it on
  // Start(); the node then also serves committed history to catching-up
  // peers after the DAG pruned it.
  std::string wal_path;
  // Replace the raw Mempool with the full ingress pipeline (admission,
  // batching, dedup, reply routing). Clients then enter via
  // SubmitClientRequest and are answered through on_client_reply.
  bool enable_ingress = false;
  IngressOptions ingress;
  // Off-thread signature/certificate verification (common/work_pool.h):
  // > 0 starts that many worker threads and routes echo HMAC and
  // certificate multisig checks through them, delivered back in receive
  // order via Runtime::Schedule(0, ...). Leave 0 over the simulator (its
  // Schedule is driver-thread-only) and for single-core deployments.
  uint32_t verify_workers = 0;
  // > 0 = checkpoint the executed state and DAG frontier to <wal_path>.snap
  // every this-many committed anchor rounds, then compact the WAL against
  // the checkpoint (restart replay becomes bounded by this interval, and
  // deep-lagging peers are served the snapshot instead of pruned history).
  // Requires wal_path; 0 disables snapshots.
  Round snapshot_interval_rounds = 0;
  // Chaos hooks (fault/ injection; leave unset in production). The write
  // fault corrupts or tears a snapshot write; the install hook, returning
  // true, simulates a crash mid-install (before execution state is adopted).
  SnapshotStore::WriteFaultFn snapshot_write_fault;
  std::function<bool(uint64_t seq)> snapshot_install_crash;
};

struct AppNodeCallbacks {
  // Receipt for every block this node executed (clan duty).
  std::function<void(const ExecutionReceipt&)> on_receipt;
  // Every ordered vertex (all nodes, block or not). After a restart this
  // stream resumes right past the replayed committed prefix (the prefix is
  // handed to on_recovered instead, never re-emitted).
  std::function<void(const Vertex&)> on_ordered;
  // Every vertex body this node established (RBC completion or verified
  // fetch), keyed by (round, source). Chaos oracles tap this. Optional.
  std::function<void(const Vertex&, const Digest&)> on_completed;
  // Fired during Start() when the WAL held state: the replayed committed
  // prefix, before any live vertex is ordered.
  std::function<void(const RecoveryState&)> on_recovered;
  // Ingress mode only: a reply frame addressed to `client` (commit,
  // rejection, or expiry). The embedder routes it back over its client
  // transport. Fires on the event-loop thread; must not reenter the node.
  std::function<void(uint64_t client, const ClientReplyMsg&)> on_client_reply;
  // A peer-served snapshot was installed (deep catch-up): execution state
  // was replaced and the total-order position re-anchored at
  // snap.order_count. Chaos oracles re-anchor their logs here. Optional.
  std::function<void(const SnapshotData&)> on_snapshot_installed;
};

struct RecoveryStats {
  bool recovered = false;
  size_t restored_vertices = 0;
  size_t trailing_vertices = 0;
  Round resume_round = 0;
  uint64_t wal_records = 0;
  int64_t duration_us = 0;  // Host wall clock spent replaying the WAL.
  // Snapshot-assisted restart: the durable checkpoint supplied the base
  // state and the WAL replayed only records past its order barrier.
  bool from_snapshot = false;
  uint64_t snapshot_seq = 0;
  uint64_t order_base = 0;
  size_t snapshot_vertices = 0;
};

class AppNode final : public MessageHandler {
 public:
  AppNode(Runtime& runtime, const Keychain& keychain, const ClanTopology& topology,
          AppNodeOptions options, AppNodeCallbacks callbacks);

  void Start();
  void OnMessage(NodeId from, MsgType type, const Bytes& payload) override;

  // Queues a client transaction for inclusion in this node's next proposal.
  void SubmitTransaction(uint64_t id, Bytes data);

  // Ingress mode: feeds one raw client request frame (ClientRequestMsg
  // bytes) through admission/batching/dedup. No-op unless enable_ingress.
  void SubmitClientRequest(const Bytes& frame);

  // Ingress mode: a clan peer's execution receipt, for the f_c+1 client
  // reply quorum. This node's own receipts are fed internally.
  void OnExecutorReceipt(NodeId executor, const ExecutionReceipt& receipt);

  uint64_t OrderedVertices() const { return ordered_count_; }
  uint64_t ExecutedBlocks() const { return executed_blocks_; }
  // Ordered blocks whose payload became unobtainable (pruned everywhere
  // after a long outage); see DrainExecutionQueue.
  uint64_t BlocksSkipped() const { return blocks_skipped_; }
  const ExecutionEngine& execution() const { return execution_; }
  SailfishNode& consensus() { return *consensus_; }
  // Null unless enable_ingress.
  IngressFrontEnd* ingress() { return ingress_.get(); }
  const IngressFrontEnd* ingress() const { return ingress_.get(); }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  // Fetcher + responder counters, plus this node's snapshot lifecycle
  // counters (written / installed / WAL records compacted away).
  SyncStats sync_stats() const;
  // Null unless snapshots are enabled and the WAL opened.
  const SnapshotStore* snapshots() const { return snapshot_store_.get(); }
  // Global total-order position of the next ordered vertex (snapshot base +
  // everything ordered since).
  uint64_t TotalOrderPosition() const { return total_order_position_; }

 private:
  void OnOrdered(const Vertex& v);
  void DrainExecutionQueue();
  // on_anchor hook: checkpoint + WAL cut when the interval elapsed. The WAL
  // tail is exactly the anchor-`r` barrier record at that point, so the cut
  // loses nothing.
  void MaybeSnapshot(Round r);
  // Consensus installed a peer-served snapshot: adopt its execution state
  // and order base, persist it locally and cut the WAL.
  void HandleSnapshotInstalled(const SnapshotData& snap);
  // Fills the SMR-owned part of a checkpoint (execution state + counters).
  void FillSnapshotAppState(SnapshotData* snap) const;
  // Cuts the WAL against snapshot `seq` and re-asserts the proposal floor in
  // the fresh log (the floor must survive even a lost snapshot file).
  uint64_t CutWalToSnapshot(uint64_t seq, uint64_t order_count, Round committed);

  Runtime& runtime_;
  const ClanTopology& topology_;
  AppNodeOptions options_;
  AppNodeCallbacks callbacks_;

  Mempool mempool_;
  std::unique_ptr<IngressFrontEnd> ingress_;  // Replaces mempool_ when set.
  ExecutionEngine execution_;
  std::unique_ptr<SailfishNode> consensus_;
  // Declared after consensus_ so it is destroyed first: joining the verify
  // workers before the disseminator dies guarantees no verification closure
  // runs against torn-down state (its pending callbacks are discarded).
  std::unique_ptr<OrderedVerifyPool> verify_pool_;
  std::unique_ptr<WalVertexStore> wal_;
  std::unique_ptr<SnapshotStore> snapshot_store_;
  RecoveryStats recovery_stats_;
  // Snapshot lifecycle counters merged into sync_stats().
  SyncStats snapshot_stats_;
  Round last_snapshot_round_ = 0;
  // First round this node may still propose for (mirrors the WAL's proposal
  // markers; persisted into locally-written snapshots, never adopted from a
  // peer's).
  Round propose_floor_ = 0;
  uint64_t total_order_position_ = 0;

  // Ordered vertices with blocks this node must execute, in order.
  std::deque<Vertex> execution_queue_;
  bool poll_armed_ = false;
  uint64_t ordered_count_ = 0;
  uint64_t executed_blocks_ = 0;
  uint64_t blocks_skipped_ = 0;
};

}  // namespace clandag

#endif  // CLANDAG_CORE_APP_NODE_H_
