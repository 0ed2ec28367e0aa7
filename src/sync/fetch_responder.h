// FetchResponder: serves kFetchRequest from the live DAG and, for rounds the
// DAG already pruned, from committed history (the WAL-backed pruned-lookup
// hook installed on the DagStore).
//
// Catch-up amplification: for every requested vertex the responder also
// walks its causal ancestry (strong + weak edges) down to the requester's
// low watermark, so one response carries a whole slab of the gap and a
// lagging node closes N rounds in O(N / budget) round trips instead of one
// fetch per vertex. Both the want list (decode side) and the response size
// (budget) are capped.
//
// Deep laggards: when a want lies below the pruned horizon and committed
// history cannot serve it either (the WAL was compacted against a snapshot),
// the responder offers its latest durable snapshot instead and serves it in
// checksummed chunks — the peer installs state wholesale rather than paging
// unbounded history vertex-by-vertex.
//
// Threading: confined to the owning node's event-loop thread (invoked from
// the node's OnMessage path); no internal locking.

#ifndef CLANDAG_SYNC_FETCH_RESPONDER_H_
#define CLANDAG_SYNC_FETCH_RESPONDER_H_

#include <functional>
#include <memory>

#include "dag/dag_store.h"
#include "net/runtime.h"
#include "sync/snapshot.h"
#include "sync/sync_stats.h"
#include "sync/sync_wire.h"

namespace clandag {

struct ResponderConfig {
  // Max vertex bodies in one response (also bounds the ancestor walk).
  uint32_t max_vertices_per_response = 256;
};

class FetchResponder {
 public:
  FetchResponder(Runtime& runtime, const DagStore& dag, ResponderConfig config);

  FetchResponder(const FetchResponder&) = delete;
  FetchResponder& operator=(const FetchResponder&) = delete;

  // Source of the latest durable snapshot (SnapshotStore::serve_state);
  // null / returning null disables snapshot offers.
  using SnapshotSourceFn = std::function<std::shared_ptr<const SnapshotServeState>()>;
  void SetSnapshotSource(SnapshotSourceFn fn) { snapshot_source_ = std::move(fn); }

  // Seq-addressed lookup (SnapshotStore::serve_state_for): checkpoints
  // rotate every interval, so chunk requests for a transfer that started one
  // rotation ago must still be servable. Optional; without it only the
  // current seq is served.
  using SnapshotBySeqFn =
      std::function<std::shared_ptr<const SnapshotServeState>(uint64_t seq)>;
  void SetSnapshotBySeq(SnapshotBySeqFn fn) { snapshot_by_seq_ = std::move(fn); }

  // Handles a kFetchRequest payload; replies with kFetchResponse when
  // anything was found, and with a kSyncSnapshotOffer when a want fell below
  // the servable horizon.
  void OnRequest(NodeId from, const Bytes& payload);

  // Handles a kSyncSnapshotChunkRequest payload; replies with the chunk if
  // the named snapshot is still servable, else re-offers the current one so
  // the requester can restart against it instead of retrying a dead seq.
  void OnSnapshotChunkRequest(NodeId from, const Bytes& payload);

  const SyncStats& stats() const { return stats_; }

 private:
  Runtime& runtime_;
  const DagStore& dag_;
  ResponderConfig config_;
  void OfferSnapshot(NodeId to, const SnapshotServeState& snap,
                     Round requester_watermark);

  SnapshotSourceFn snapshot_source_;
  SnapshotBySeqFn snapshot_by_seq_;
  SyncStats stats_;
};

}  // namespace clandag

#endif  // CLANDAG_SYNC_FETCH_RESPONDER_H_
