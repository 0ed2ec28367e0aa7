// Sailfish-style DAG BFT node (paper §5/§6 over the §7 baseline).
//
// One SailfishNode per party, written against the Runtime abstraction so the
// identical code runs in simulation and over real transports. The node owns:
//  - a VertexDisseminator (merged vertex+block broadcast; the dissemination
//    mode — full / single-clan / multi-clan — comes from the ClanTopology);
//  - a DagStore of causally-complete vertices;
//  - a Committer implementing the 1 RBC + 1δ commit rule and total ordering.
//
// Round structure: every party proposes one vertex per round. The node moves
// from round r to r+1 once 2f+1 round-r vertices completed broadcast AND the
// round-r leader vertex arrived or the round timeout fired. A party that
// timed out sends a signed TIMEOUT to everyone and a signed NO-VOTE to the
// round-(r+1) leader, and must not strong-edge (vote for) the round-r leader
// vertex afterwards — vote/no-vote exclusivity is what makes skipping a
// leader provably safe.
//
// Leader justification: a round-r leader vertex without a strong edge to the
// round-(r-1) leader vertex is admitted to the DAG only if it carries a
// valid no-vote or timeout certificate for r-1.

#ifndef CLANDAG_CONSENSUS_SAILFISH_H_
#define CLANDAG_CONSENSUS_SAILFISH_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/hot_path.h"
#include "common/pool.h"
#include "common/quorum.h"
#include "consensus/clan.h"
#include "consensus/committer.h"
#include "consensus/dissemination.h"
#include "dag/dag_store.h"
#include "net/runtime.h"
#include "sync/fetch_responder.h"
#include "sync/recovery.h"
#include "sync/snapshot.h"
#include "sync/vertex_fetcher.h"

namespace clandag {

// Supplies the transaction block for this node's next proposal.
class BlockSource {
 public:
  virtual ~BlockSource() = default;
  // Returns the block to attach at `round` (std::nullopt to propose an empty
  // vertex). `now` is the proposal time.
  virtual std::optional<BlockInfo> NextBlock(Round round, TimeMicros now) = 0;
};

struct SailfishConfig {
  uint32_t num_nodes = 0;
  uint32_t num_faults = 0;  // f = floor((n-1)/3) unless overridden.
  TimeMicros round_timeout = Millis(1500);
  DisseminationConfig dissemination;
  // State-sync subsystem knobs (src/sync/).
  FetcherConfig fetch;
  ResponderConfig responder;
  // Rounds of history kept below the commit frontier before pruning. The
  // effective GC floor is additionally capped by the fetcher's oldest pinned
  // round, so in-flight repairs are never pruned out from under themselves.
  Round gc_depth = 64;

  uint32_t Quorum() const { return ByzantineQuorum(num_faults); }
};

struct SailfishCallbacks {
  // Vertices in the agreed total order (same sequence at every honest node).
  std::function<void(const Vertex&)> on_ordered;
  // Fired when a vertex body is established for (round, source): RBC
  // completion or digest-verified fetch. Honest nodes must never see two
  // different bodies here for the same key — the chaos safety oracle's
  // delivery-consistency tap. Optional.
  std::function<void(const Vertex&, const Digest&)> on_completed;
  std::function<void(Round)> on_round_advance;  // Optional.
  // Fired just before broadcasting this node's own round-r vertex; the WAL
  // writes its proposal marker here (anti-self-equivocation across restarts).
  std::function<void(Round)> on_propose;  // Optional.
  // Fired after a committed anchor finished ordering its history batch; the
  // WAL writes its durable commit barrier here.
  std::function<void(Round)> on_anchor;  // Optional.
  // Fired after a peer-served snapshot was installed into live consensus
  // state (deep catch-up): the SMR layer restores execution, persists the
  // snapshot locally and re-anchors its order position. Optional.
  std::function<void(const SnapshotData&)> on_snapshot_installed;  // Optional.
};

// What RestoreFromWal reconstructed.
struct RecoveryOutcome {
  size_t restored_vertices = 0;   // Committed prefix re-inserted and marked.
  size_t trailing_vertices = 0;   // Re-inserted unordered (will re-commit).
  Round resume_round = 0;         // Round the node rejoins the protocol at.
  bool from_snapshot = false;     // A snapshot supplied the base state.
  size_t snapshot_vertices = 0;   // Frontier vertices installed from it.
};

class SailfishNode final : public MessageHandler {
 public:
  SailfishNode(Runtime& runtime, const Keychain& keychain, const ClanTopology& topology,
               SailfishConfig config, BlockSource* block_source, SailfishCallbacks callbacks);

  SailfishNode(const SailfishNode&) = delete;
  SailfishNode& operator=(const SailfishNode&) = delete;

  // Proposes the first vertex (round 0, or the resume round after
  // RestoreFromWal) and starts the round timer.
  void Start();

  // Rebuilds consensus state from a replayed WAL. Must be called before
  // Start() and before any live message: re-inserts the committed prefix
  // (marked ordered so it is never re-emitted), restores the commit
  // frontier, re-inserts trailing ordered-but-unbarriered vertices (the
  // live committer re-orders them identically, which may fire on_ordered
  // synchronously here), and moves the propose floor above every round this
  // node may have proposed in a previous life.
  //
  // `snapshot` (optional) supplies the base the WAL was compacted against:
  // its frontier vertices are installed first (ordered prefix marked, holes
  // left unordered) and the WAL's records replay on top. When the WAL names
  // a snapshot that could not be loaded, recovery degrades to a floor-only
  // restore from the kSnapshotMark alone — bounded data, never a crash.
  RecoveryOutcome RestoreFromWal(const RecoveryState& state,
                                 const SnapshotData* snapshot = nullptr);

  // Installs the committed-history lookup the DagStore consults for pruned
  // rounds (the FetchResponder serves from it).
  void SetHistoryProvider(DagStore::PrunedLookupFn fn);

  // Installs the durable-snapshot source the FetchResponder offers to
  // deep-lagging peers (SnapshotStore::serve_state).
  void SetSnapshotSource(FetchResponder::SnapshotSourceFn fn);
  void SetSnapshotBySeq(FetchResponder::SnapshotBySeqFn fn);

  // Fills the consensus-owned part of a checkpoint at committed anchor round
  // `anchor_round`: pruned floor and every DAG vertex at rounds <= the
  // anchor with its ordered flag. Must be called from the on_anchor callback
  // (the committer may already have advanced LastCommittedRound past
  // `anchor_round` mid-chain, but only rounds <= `anchor_round` have their
  // order emitted at that point). The SMR layer adds execution state and
  // order counters.
  void CaptureSnapshot(Round anchor_round, SnapshotData* out) const;

  // MessageHandler.
  CLANDAG_HOT void OnMessage(NodeId from, MsgType type, const Bytes& payload) override;

  // Round-robin leader schedule shared by all parties.
  NodeId LeaderOf(Round round) const { return static_cast<NodeId>(round % config_.num_nodes); }

  Round CurrentRound() const { return current_round_; }
  int64_t LastCommittedRound() const { return committer_.LastCommittedRound(); }
  const DagStore& dag() const { return dag_; }
  const Committer& committer() const { return committer_; }
  VertexDisseminator& disseminator() { return *dissem_; }
  const VertexFetcher& fetcher() const { return *fetcher_; }
  // Combined fetcher + responder counters.
  SyncStats sync_stats() const;

 private:
  CLANDAG_HOT void OnVertexVal(const Vertex& v);
  CLANDAG_HOT void OnVertexComplete(const Vertex& v, const Digest& digest);
  // cold: sync-repair delivery, not the broadcast fast path.
  CLANDAG_COLD void OnFetchedVertex(Vertex v, const Digest& digest);
  void OnBlock(const BlockInfo& block);

  CLANDAG_HOT bool StructurallyValid(const Vertex& v) const;
  CLANDAG_HOT bool Justified(const Vertex& v) const;
  // Admits `v` if its parents are present (else hands a copy to the fetcher,
  // which repairs the missing parents); drains dependents. Takes a reference
  // because admission only copies into the DAG's recycled storage — the
  // blocked/repair path is the one that needs ownership, and it is cold.
  CLANDAG_HOT void TryAdmit(const Vertex& v, const Digest& digest);
  CLANDAG_HOT bool AdmitNow(const Vertex& v, const Digest& digest);
  CLANDAG_HOT void DrainFetcher();

  CLANDAG_HOT void MaybeAdvance();
  // Attempts the proposal for `round`; returns false when it must wait (for
  // more round-(r-1) vertices or for a justification certificate).
  // cold: once per round, not per message.
  CLANDAG_COLD bool ProposeForRound(Round round);
  void TryPendingProposal();
  void ScheduleTimeout(Round round);
  // cold: timeouts fire only when a round stalls.
  CLANDAG_COLD void OnTimeout(Round round);
  CLANDAG_HOT void OnTimeoutMsg(NodeId from, const Bytes& payload);
  CLANDAG_HOT void OnNoVoteMsg(NodeId from, const Bytes& payload);
  void GarbageCollect();
  // Adopts a peer-served snapshot mid-run: resets the DAG to its frontier,
  // advances the commit frontier and jumps the round. No-op when stale.
  // cold: deep catch-up only.
  CLANDAG_COLD void InstallSnapshot(NodeId from, SnapshotData snap);
  // Shared by WAL replay and snapshot install: inserts a restored vertex if
  // its parents resolve, marking it ordered when flagged. Returns false (and
  // warns) on an inconsistent record instead of crashing.
  // cold: recovery only.
  CLANDAG_COLD bool RestoreVertex(const Vertex& v, bool ordered);

  Runtime& runtime_;
  const Keychain& keychain_;
  const ClanTopology& topology_;
  SailfishConfig config_;
  BlockSource* block_source_;
  SailfishCallbacks callbacks_;

  DagStore dag_;
  Committer committer_;
  std::unique_ptr<VertexDisseminator> dissem_;
  // Completed vertices waiting for parents live inside the fetcher, which
  // actively repairs the gaps (the pre-sync design buffered them passively).
  std::unique_ptr<VertexFetcher> fetcher_;
  std::unique_ptr<FetchResponder> responder_;

  Round current_round_ = 0;
  Round last_proposed_ = 0;
  bool proposed_any_ = false;
  bool recovered_ = false;
  // Proposal that could not be issued yet (missing parents after a no-vote
  // exclusion, or missing NVC/TC justification for a leader skip).
  std::optional<Round> pending_proposal_;

  // Per-round vote bookkeeping is NodeArena-backed (common/pool.h): nodes
  // erased by GarbageCollect recycle into the next round's inserts, keeping
  // the per-round state machine off the heap (DESIGN.md §15).
  ArenaSet<Round> timeout_fired_;
  // Repeat-timeout bookkeeping for the current round (anti-entropy beats).
  Round timeout_round_ = 0;
  uint32_t timeout_repeats_ = 0;
  ArenaSet<Round> no_voted_;  // Rounds whose leader this node refused to vote for.
  ArenaMap<Round, VoteTracker> timeout_votes_;
  ArenaMap<Round, TimeoutCert> tcs_;
  ArenaMap<Round, VoteTracker> novote_votes_;
  ArenaMap<Round, NoVoteCert> nvcs_;
  // Scratch for StructurallyValid's duplicate-source check (capacity
  // retained across calls; single-threaded like all consensus state).
  mutable std::vector<uint8_t> dup_scratch_;
};

}  // namespace clandag

#endif  // CLANDAG_CONSENSUS_SAILFISH_H_
