// VertexFetcher: repairs causal completeness when dissemination fails.
//
// The consensus layer hands every RBC-completed vertex whose parents are not
// yet in the DAG to the fetcher ("blocked"). The fetcher records each missing
// (round, source) parent together with the digest the blocked child's edge
// names, and — after an initial grace period that lets the normal broadcast
// win — sends kFetchRequest to rotating peers with exponential backoff.
// Response bodies are verified by recomputing their digest against that
// expected edge digest: the child completed RBC, so its edges are
// non-equivocating commitments to exactly one parent body. A verified parent
// fetched this way may itself be blocked, which recursively registers *its*
// missing parents (with a short delay: we are actively catching up), so the
// fetch walks the gap back to the requester's frontier.
//
// Deduplication: one entry per missing (round, source) no matter how many
// blocked children reference it, and an entry is dropped the moment the
// vertex shows up through any path. Entries that stay unfetchable for
// max_attempts (a fabricated edge, or history everyone already dropped) are
// abandoned together with the children that need them — exactly the old
// buffer-drop behaviour, but bounded and counted.
//
// Snapshot catch-up: when a responder answers a want with a snapshot offer
// instead (the want lies below its servable horizon), the fetcher pulls the
// snapshot in checksummed chunks — one transfer at a time, each chunk
// re-requested with the usual exponential backoff on timeout and the whole
// payload checksum-verified before it is decoded and handed to consensus.
//
// Threading: confined to the owning node's event-loop thread. Timer
// callbacks (grace period, retry backoff) are scheduled on the same
// Runtime and therefore also run on that thread; no internal locking.

#ifndef CLANDAG_SYNC_VERTEX_FETCHER_H_
#define CLANDAG_SYNC_VERTEX_FETCHER_H_

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dag/dag_store.h"
#include "net/runtime.h"
#include "sync/snapshot.h"
#include "sync/sync_stats.h"
#include "sync/sync_wire.h"

namespace clandag {

struct FetcherConfig {
  // Grace period before the first request: the normal broadcast usually
  // delivers the parent within one RTT.
  TimeMicros initial_delay = Millis(400);
  // Exponential backoff between retries: retry_base << attempts, capped,
  // then spread by ±retry_jitter relative jitter — nodes that lost the same
  // vertex to the same partition would otherwise re-request in synchronized
  // waves against the recovering holder.
  TimeMicros retry_base = Millis(300);
  TimeMicros retry_cap = Seconds(4);
  double retry_jitter = 0.1;
  // Seed for the deterministic jitter RNG (mixed with the node id); tests
  // replay exact retry schedules from it.
  uint64_t seed = 1;
  uint32_t max_attempts = 16;
};

class VertexFetcher {
 public:
  // Receives a digest-verified fetched vertex (same contract as an RBC
  // completion: non-equivocation established).
  using DeliverFn = std::function<void(Vertex, const Digest&)>;
  // The requester's committed frontier, sent as the request low watermark.
  using WatermarkFn = std::function<Round()>;

  VertexFetcher(Runtime& runtime, const DagStore& dag, FetcherConfig config);

  VertexFetcher(const VertexFetcher&) = delete;
  VertexFetcher& operator=(const VertexFetcher&) = delete;

  // Receives a fully reassembled, checksum-verified, decoded snapshot from a
  // peer (the consensus layer installs it).
  using SnapshotDeliverFn = std::function<void(NodeId from, SnapshotData snap)>;

  void SetDeliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void SetLowWatermark(WatermarkFn fn) { watermark_ = std::move(fn); }
  void SetSnapshotDeliver(SnapshotDeliverFn fn) { snapshot_deliver_ = std::move(fn); }

  // Holds a completed-but-causally-incomplete vertex and schedules fetches
  // for its missing parents.
  void AddBlocked(Vertex v, const Digest& digest);

  // Handles a kFetchResponse payload.
  void OnResponse(NodeId from, const Bytes& payload);

  // Handles a kSyncSnapshotOffer payload: starts a chunked transfer when the
  // offer is ahead of our committed frontier and no transfer is running.
  void OnSnapshotOffer(NodeId from, const Bytes& payload);
  // Handles a kSyncSnapshotChunk payload: verifies and appends the chunk,
  // requesting the next one (or finalizing and delivering the snapshot).
  void OnSnapshotChunk(NodeId from, const Bytes& payload);

  bool SnapshotTransferActive() const { return snap_.has_value(); }

  // Removes and returns every blocked vertex whose parents are now all
  // present-or-pruned (the caller admits them, oldest rounds first). Also
  // retires missing entries satisfied through other paths.
  std::vector<std::pair<Vertex, Digest>> TakeAdmissible();

  // Lowest round still referenced by a blocked vertex or a missing parent —
  // the GC floor must not rise past it (fetch-aware GC).
  std::optional<Round> OldestPinnedRound() const;

  // Drops state below `floor` (the caller already capped the floor with
  // OldestPinnedRound, so under normal operation this is a no-op).
  void PruneBelow(Round floor);

  size_t BlockedCount() const { return blocked_.size(); }
  size_t MissingCount() const { return missing_.size(); }
  const SyncStats& stats() const { return stats_; }

  // Delay before the retry following `attempt` sent requests: exponential,
  // capped at retry_cap, jittered. Advances the jitter RNG — public so tests
  // can replay the exact schedule the fetcher would use.
  TimeMicros NextBackoff(uint32_t attempt);

 private:
  using Key = std::pair<Round, NodeId>;

  struct Blocked {
    Vertex v;
    Digest digest;
  };
  struct Missing {
    Digest expected;
    uint32_t attempts = 0;
    uint32_t peer_rr = 0;  // Rotation cursor over candidate responders.
  };

  // True if the (round, source) slot no longer needs fetching.
  bool Satisfied(Round round, NodeId source) const;
  void Register(Round round, NodeId source, const Digest& expected);
  void ArmTimer(Round round, NodeId source, TimeMicros delay);
  void OnTimer(Round round, NodeId source);
  void SendRequest(const Key& key, Missing& entry);
  // Drops blocked vertices that reference `key` and missing entries no
  // surviving blocked vertex references.
  void Abandon(const Key& key);
  void SweepOrphanedMissing();

  // One in-flight chunked snapshot transfer (a second offer is ignored until
  // this one completes or is abandoned).
  struct SnapshotTransfer {
    NodeId peer = 0;
    uint64_t seq = 0;
    uint64_t total_bytes = 0;
    uint32_t chunk_size = 0;
    uint32_t chunk_count = 0;
    uint32_t total_checksum = 0;
    Bytes buf;
    uint32_t next_chunk = 0;
    uint32_t attempts = 0;  // Timeouts for the current chunk.
  };
  void RequestSnapshotChunk();
  void OnSnapshotTimer(uint64_t gen, uint32_t chunk);

  Runtime& runtime_;
  const DagStore& dag_;
  FetcherConfig config_;
  DeliverFn deliver_;
  WatermarkFn watermark_;

  std::map<Key, Blocked> blocked_;
  std::map<Key, Missing> missing_;
  std::optional<SnapshotTransfer> snap_;
  uint64_t snap_gen_ = 0;  // Bumped on start/abandon; stales old timers.
  SnapshotDeliverFn snapshot_deliver_;
  // Registrations made while dispatching a fetch response use the fast
  // first-request delay.
  bool in_response_ = false;
  DetRng rng_{1};  // Reseeded in the constructor (config seed ⊕ node id).

  SyncStats stats_;
};

}  // namespace clandag

#endif  // CLANDAG_SYNC_VERTEX_FETCHER_H_
