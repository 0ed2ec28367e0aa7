#include "core/app_node.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"

namespace clandag {
namespace {

// How often to re-check the block store for a stalled execution head.
constexpr TimeMicros kExecutionPoll = Millis(50);

}  // namespace

AppNode::AppNode(Runtime& runtime, const Keychain& keychain, const ClanTopology& topology,
                 AppNodeOptions options, AppNodeCallbacks callbacks)
    : runtime_(runtime),
      topology_(topology),
      options_(options),
      callbacks_(std::move(callbacks)),
      mempool_(Mempool::Options{}) {
  if (options_.enable_ingress) {
    ingress_ = std::make_unique<IngressFrontEnd>(
        runtime_.id(), topology_.ClanQuorumFor(runtime_.id()), options_.ingress,
        [this](uint64_t client, const ClientReplyMsg& reply) {
          if (callbacks_.on_client_reply) {
            callbacks_.on_client_reply(client, reply);
          }
        });
  }
  SailfishCallbacks consensus_callbacks;
  consensus_callbacks.on_ordered = [this](const Vertex& v) { OnOrdered(v); };
  if (callbacks_.on_completed) {
    consensus_callbacks.on_completed = callbacks_.on_completed;
  }
  consensus_callbacks.on_anchor = [this](Round r) {
    if (wal_) {
      wal_->AppendAnchor(r);
      // The WAL tail is exactly the anchor-r barrier record here, so a
      // snapshot cut at this point loses nothing.
      MaybeSnapshot(r);
    }
  };
  consensus_callbacks.on_propose = [this](Round r) {
    propose_floor_ = std::max(propose_floor_, r + 1);
    if (wal_) {
      wal_->AppendProposal(r);
    }
  };
  consensus_callbacks.on_snapshot_installed = [this](const SnapshotData& snap) {
    HandleSnapshotInstalled(snap);
  };
  BlockSource* source = ingress_ ? static_cast<BlockSource*>(ingress_.get()) : &mempool_;
  if (options_.verify_workers > 0) {
    verify_pool_ = std::make_unique<OrderedVerifyPool>(
        OrderedVerifyPool::Options{options_.verify_workers, /*max_batch=*/16},
        [this](std::function<void()> fn) { runtime_.Schedule(0, std::move(fn)); });
    options_.consensus.dissemination.verify_pool = verify_pool_.get();
  }
  consensus_ = std::make_unique<SailfishNode>(runtime_, keychain, topology_, options_.consensus,
                                              source, std::move(consensus_callbacks));
  consensus_->SetSnapshotSource([this]() -> std::shared_ptr<const SnapshotServeState> {
    return snapshot_store_ ? snapshot_store_->serve_state() : nullptr;
  });
  consensus_->SetSnapshotBySeq(
      [this](uint64_t seq) -> std::shared_ptr<const SnapshotServeState> {
        return snapshot_store_ ? snapshot_store_->serve_state_for(seq) : nullptr;
      });
}

void AppNode::Start() {
  if (!options_.wal_path.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    if (options_.snapshot_interval_rounds > 0) {
      snapshot_store_ = std::make_unique<SnapshotStore>(options_.wal_path + ".snap");
      if (options_.snapshot_write_fault) {
        snapshot_store_->SetWriteFault(options_.snapshot_write_fault);
      }
    }
    auto wal = std::make_unique<WalVertexStore>(options_.wal_path);
    if (!wal->Load()) {
      CLANDAG_WARN("node %u: cannot open WAL %s; running without persistence", runtime_.id(),
                   options_.wal_path.c_str());
    } else {
      wal_ = std::move(wal);
      consensus_->SetHistoryProvider(
          [this](Round r, NodeId s) { return wal_->Lookup(r, s); });
      // Mutable copy: the degraded fallback below rewrites what gets
      // replayed when the snapshot the WAL was cut against is gone.
      RecoveryState state = wal_->recovery();
      std::optional<SnapshotStore::Loaded> loaded;
      if (snapshot_store_) {
        loaded = snapshot_store_->Load();
      }
      const SnapshotData* snap = nullptr;
      bool degraded_to_prev = false;
      if (loaded.has_value()) {
        if (state.snapshot_seq == 0 || loaded->data.seq >= state.snapshot_seq) {
          // Normal pairing, or a crash landed between snapshot write and WAL
          // cut (snapshot newer than — or unnamed by — the log). Either way
          // the snapshot is the base and the WAL replays on top; records the
          // snapshot already covers deduplicate against the frontier.
          snap = &loaded->data;
        } else {
          // The snapshot the WAL was cut against is gone (current file lost
          // or corrupt; an older one loaded instead). The WAL's records
          // count positions on the lost snapshot's order base, so they
          // cannot replay over the older one: drop them and let live
          // re-commits regenerate that history deterministically. Proposal
          // markers survive — self-equivocation safety is not negotiable.
          CLANDAG_WARN(
              "node %u: WAL names snapshot seq %llu but only seq %llu loads; "
              "degrading to the older checkpoint and dropping %zu WAL vertices",
              runtime_.id(), static_cast<unsigned long long>(state.snapshot_seq),
              static_cast<unsigned long long>(loaded->data.seq),
              state.ordered.size() + state.trailing.size());
          degraded_to_prev = true;
          state.ordered.clear();
          state.trailing.clear();
          state.last_committed = -1;
          state.snapshot_seq = loaded->data.seq;
          state.order_base = loaded->data.order_count;
          state.snapshot_committed = -1;
          snap = &loaded->data;
        }
      }
      if (state.HasData() || snap != nullptr) {
        // Restore the consensus state first (trailing vertices may re-order
        // synchronously, flowing through OnOrdered like live traffic), then
        // hand the committed prefix to the application.
        recovery_stats_.recovered = true;
        recovery_stats_.wal_records = state.records;
        total_order_position_ = std::max<uint64_t>(
            state.order_base + state.ordered.size(),
            snap != nullptr ? snap->order_count : 0);
        propose_floor_ =
            std::max(state.propose_floor, snap != nullptr ? snap->propose_floor : 0);
        const RecoveryOutcome outcome = consensus_->RestoreFromWal(state, snap);
        recovery_stats_.restored_vertices = outcome.restored_vertices;
        recovery_stats_.trailing_vertices = outcome.trailing_vertices;
        recovery_stats_.resume_round = outcome.resume_round;
        recovery_stats_.from_snapshot = outcome.from_snapshot;
        recovery_stats_.snapshot_vertices = outcome.snapshot_vertices;
        recovery_stats_.snapshot_seq = snap != nullptr ? snap->seq : state.snapshot_seq;
        recovery_stats_.order_base = state.order_base;
        if (snap != nullptr) {
          execution_.RestoreState(snap->initial_balance, snap->balances, snap->state_digest,
                                  snap->executed_txs, snap->rejected_txs);
          last_snapshot_round_ = snap->last_committed;
        } else if (state.snapshot_committed >= 0) {
          // Floor-only recovery: the mark bounds replay but the execution
          // state that went with it is unrecoverable.
          last_snapshot_round_ = static_cast<Round>(state.snapshot_committed);
        }
        if (degraded_to_prev) {
          // Re-point the log at the snapshot actually restored, so the next
          // restart does not chase the lost one again.
          snapshot_stats_.wal_records_truncated += CutWalToSnapshot(
              loaded->data.seq, loaded->data.order_count, loaded->data.last_committed);
        }
        if (callbacks_.on_recovered) {
          callbacks_.on_recovered(state);
        }
      }
    }
    recovery_stats_.duration_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count();
  }
  consensus_->Start();
}

void AppNode::OnMessage(NodeId from, MsgType type, const Bytes& payload) {
  consensus_->OnMessage(from, type, payload);
}

void AppNode::SubmitTransaction(uint64_t id, Bytes data) {
  Transaction tx;
  tx.id = id;
  tx.created_at = runtime_.Now();
  tx.data = std::move(data);
  mempool_.Submit(std::move(tx));
}

void AppNode::SubmitClientRequest(const Bytes& frame) {
  if (ingress_) {
    ingress_->SubmitRaw(frame, runtime_.Now());
  }
}

void AppNode::OnExecutorReceipt(NodeId executor, const ExecutionReceipt& receipt) {
  if (ingress_) {
    ingress_->OnExecutorReceipt(executor, receipt, runtime_.Now());
  }
}

SyncStats AppNode::sync_stats() const {
  SyncStats s = consensus_->sync_stats();
  s += snapshot_stats_;
  return s;
}

void AppNode::FillSnapshotAppState(SnapshotData* snap) const {
  snap->propose_floor = propose_floor_;
  snap->initial_balance = execution_.InitialBalance();
  snap->balances = execution_.ExportBalances();
  snap->state_digest = execution_.StateDigest();
  snap->executed_txs = execution_.ExecutedTxs();
  snap->rejected_txs = execution_.RejectedTxs();
}

uint64_t AppNode::CutWalToSnapshot(uint64_t seq, uint64_t order_count, Round committed) {
  const uint64_t dropped = wal_->CutToSnapshot(seq, order_count, committed);
  if (dropped > 0 && propose_floor_ > 0) {
    // The proposal floor must survive even if the snapshot file is later
    // lost (floor-only recovery): re-assert it in the fresh log.
    wal_->AppendProposal(propose_floor_ - 1);
  }
  return dropped;
}

void AppNode::MaybeSnapshot(Round r) {
  if (!snapshot_store_ || !wal_ || options_.snapshot_interval_rounds == 0 ||
      r < last_snapshot_round_ + options_.snapshot_interval_rounds) {
    return;
  }
  if (!execution_queue_.empty()) {
    // Capture only at an execution-quiescent anchor: the snapshot's state
    // digest must cover every order position below order_count. Retries at
    // the next anchor (the interval floor was not advanced).
    return;
  }
  SnapshotData snap;
  snap.seq = snapshot_store_->NextSeq();
  consensus_->CaptureSnapshot(r, &snap);
  snap.order_count = total_order_position_;
  FillSnapshotAppState(&snap);
  last_snapshot_round_ = r;
  if (!snapshot_store_->Write(snap)) {
    CLANDAG_WARN("node %u: snapshot seq %llu write failed; keeping full WAL", runtime_.id(),
                 static_cast<unsigned long long>(snap.seq));
    return;
  }
  ++snapshot_stats_.snapshots_written;
  snapshot_stats_.wal_records_truncated += CutWalToSnapshot(snap.seq, snap.order_count, r);
}

void AppNode::HandleSnapshotInstalled(const SnapshotData& snap) {
  // Ordered-but-unexecuted work from the jumped-over history is superseded
  // by the snapshot's execution state.
  execution_queue_.clear();
  if (options_.snapshot_install_crash && options_.snapshot_install_crash(snap.seq)) {
    return;  // Chaos hook: simulated crash mid-install.
  }
  ++snapshot_stats_.snapshots_installed;
  total_order_position_ = snap.order_count;
  execution_.RestoreState(snap.initial_balance, snap.balances, snap.state_digest,
                          snap.executed_txs, snap.rejected_txs);
  last_snapshot_round_ = snap.last_committed;
  if (wal_) {
    // Re-anchor the log on the installed snapshot: pre-jump records count
    // positions on the old base and must not replay under the new one.
    uint64_t seq = snap.seq;
    if (snapshot_store_) {
      SnapshotData local = snap;
      local.seq = snapshot_store_->NextSeq();
      local.propose_floor = propose_floor_;  // Local history, never the peer's.
      if (snapshot_store_->Write(local)) {
        ++snapshot_stats_.snapshots_written;
        seq = local.seq;
      }
      // On write failure the cut below names a snapshot the store cannot
      // load; the next restart degrades to floor-only recovery — warned and
      // consistent rather than silently wrong.
    }
    snapshot_stats_.wal_records_truncated +=
        CutWalToSnapshot(seq, snap.order_count, snap.last_committed);
  }
  if (callbacks_.on_snapshot_installed) {
    callbacks_.on_snapshot_installed(snap);
  }
}

void AppNode::OnOrdered(const Vertex& v) {
  ++ordered_count_;
  ++total_order_position_;
  if (wal_) {
    // Durability before externalization: the vertex hits the log before any
    // callback can act on it.
    wal_->AppendOrdered(v);
  }
  if (callbacks_.on_ordered) {
    callbacks_.on_ordered(v);
  }
  if (v.HasBlock() && topology_.ReceivesBlocksOf(v.source, runtime_.id())) {
    // bounded: drained synchronously by DrainExecutionQueue below.
    execution_queue_.push_back(v);
    DrainExecutionQueue();
  }
}

void AppNode::DrainExecutionQueue() {
  while (!execution_queue_.empty()) {
    const Vertex& head = execution_queue_.front();
    const BlockInfo* block = consensus_->disseminator().GetBlock(head.source, head.round);
    if (block == nullptr) {
      // After a long outage the payload of an old ordered block can be
      // unobtainable (every peer pruned it; the WAL persists vertices, not
      // blocks). Skip it rather than stall execution forever — payload
      // state transfer is out of scope for the sync subsystem.
      const int64_t committed = consensus_->LastCommittedRound();
      if (committed > 0 && head.round + options_.consensus.gc_depth < static_cast<Round>(committed)) {
        ++blocks_skipped_;
        execution_queue_.pop_front();
        continue;
      }
      // Block still downloading; poll until it lands (the disseminator's
      // pull protocol is already chasing it).
      if (!poll_armed_) {
        poll_armed_ = true;
        runtime_.Schedule(kExecutionPoll, [this] {
          poll_armed_ = false;
          DrainExecutionQueue();
        });
      }
      return;
    }
    ExecutionReceipt receipt = execution_.ExecuteBlock(*block);
    ++executed_blocks_;
    if (ingress_) {
      // This node's own execution vote toward its clients' f_c+1 quorum.
      ingress_->OnExecutorReceipt(runtime_.id(), receipt, runtime_.Now());
    }
    if (callbacks_.on_receipt) {
      callbacks_.on_receipt(receipt);
    }
    execution_queue_.pop_front();
  }
}

}  // namespace clandag
