#include "consensus/sailfish.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace clandag {
namespace {

// How many times the round timer re-arms while the node is stuck in one
// round (see OnTimeout). Bounded so drained simulations reach idle.
constexpr uint32_t kMaxTimeoutRebroadcasts = 64;

}  // namespace

SailfishNode::SailfishNode(Runtime& runtime, const Keychain& keychain,
                           const ClanTopology& topology, SailfishConfig config,
                           BlockSource* block_source, SailfishCallbacks callbacks)
    : runtime_(runtime),
      keychain_(keychain),
      topology_(topology),
      config_(config),
      block_source_(block_source),
      callbacks_(std::move(callbacks)),
      dag_(config.num_nodes),
      committer_(
          dag_, config.num_nodes, config.Quorum(),
          [this](Round r) { return LeaderOf(r); },
          [this](const Vertex& v) {
            if (callbacks_.on_ordered) {
              callbacks_.on_ordered(v);
            }
          }) {
  CLANDAG_CHECK(config_.num_nodes > 0);
  CLANDAG_CHECK(config_.num_faults * 3 < config_.num_nodes);
  DisseminationCallbacks cbs;
  cbs.on_vertex_val = [this](const Vertex& v) { OnVertexVal(v); };
  cbs.on_vertex_complete = [this](const Vertex& v, const Digest& d) { OnVertexComplete(v, d); };
  cbs.on_block = [this](const BlockInfo& b) { OnBlock(b); };
  DisseminationConfig dcfg = config_.dissemination;
  dcfg.num_nodes = config_.num_nodes;
  dcfg.num_faults = config_.num_faults;
  dissem_ = std::make_unique<VertexDisseminator>(runtime_, keychain_, topology_, dcfg,
                                                 std::move(cbs));
  committer_.SetAnchorCallback([this](Round r) {
    if (callbacks_.on_anchor) {
      callbacks_.on_anchor(r);
    }
  });
  fetcher_ = std::make_unique<VertexFetcher>(runtime_, dag_, config_.fetch);
  fetcher_->SetDeliver([this](Vertex v, const Digest& d) { OnFetchedVertex(std::move(v), d); });
  fetcher_->SetLowWatermark(
      [this] { return static_cast<Round>(committer_.LastCommittedRound() + 1); });
  fetcher_->SetSnapshotDeliver(
      [this](NodeId from, SnapshotData snap) { InstallSnapshot(from, std::move(snap)); });
  responder_ = std::make_unique<FetchResponder>(runtime_, dag_, config_.responder);
}

void SailfishNode::Start() {
  if (recovered_) {
    if (!ProposeForRound(current_round_)) {
      pending_proposal_ = current_round_;
    }
    ScheduleTimeout(current_round_);
    return;
  }
  ProposeForRound(0);
  ScheduleTimeout(0);
}

RecoveryOutcome SailfishNode::RestoreFromWal(const RecoveryState& state,
                                             const SnapshotData* snapshot) {
  CLANDAG_CHECK(!recovered_ && !proposed_any_ && current_round_ == 0);
  recovered_ = true;
  RecoveryOutcome out;
  Round max_round = 0;
  int64_t committed = state.last_committed;
  Round snap_propose_floor = 0;
  if (snapshot != nullptr) {
    // Install the compaction base first: the DAG frontier at rounds <= the
    // snapshot's commit round (unordered holes included, so weak edges to
    // stragglers resolve identically to a node that never restarted). The
    // frontier is stored ascending by round, so parents precede children.
    dag_.ResetToFrontier(snapshot->dag_floor);
    for (size_t i = 0; i < snapshot->vertices.size(); ++i) {
      const bool ordered = i < snapshot->ordered.size() && snapshot->ordered[i] != 0;
      if (RestoreVertex(snapshot->vertices[i], ordered)) {
        max_round = std::max(max_round, snapshot->vertices[i].round);
        ++out.snapshot_vertices;
      }
    }
    committed = std::max(committed, static_cast<int64_t>(snapshot->last_committed));
    snap_propose_floor = snapshot->propose_floor;
    out.from_snapshot = true;
  } else if (state.snapshot_committed >= 0) {
    // The WAL was compacted against a snapshot nothing could load: degrade
    // to a floor-only restore from the kSnapshotMark. Rounds at or below the
    // mark's commit round become pruned history; WAL records above it still
    // replay (records at or below it are skipped as pruned — bounded data
    // loss, never a crash).
    dag_.ResetToFrontier(static_cast<Round>(state.snapshot_committed) + 1);
    max_round = static_cast<Round>(state.snapshot_committed);
    CLANDAG_WARN(
        "node %u: WAL names snapshot seq %llu but no snapshot file loads; "
        "floor-only recovery above round %lld (execution state lost)",
        runtime_.id(), static_cast<unsigned long long>(state.snapshot_seq),
        static_cast<long long>(state.snapshot_committed));
  }
  committer_.RestoreCommitted(committed);
  // The WAL's append order is the agreed total order, which respects
  // causality, so parents are always present when a vertex is re-inserted
  // (or pruned, after a floor-only restore).
  for (const Vertex& v : state.ordered) {
    if (!RestoreVertex(v, true)) {
      continue;  // Duplicate record or below the snapshot floor; harmless.
    }
    max_round = std::max(max_round, v.round);
    ++out.restored_vertices;
  }
  for (const Vertex& v : state.trailing) {
    if (!RestoreVertex(v, false)) {
      continue;
    }
    max_round = std::max(max_round, v.round);
    ++out.trailing_vertices;
    // Re-count the vote this vertex carries; if a trailing anchor regains its
    // quorum the committer re-orders it right here, deterministically
    // repeating the pre-crash order past the durable barrier.
    committer_.OnVertexAdded(*dag_.Get(v.round, v.source));
  }
  const bool restored_any = (out.restored_vertices + out.trailing_vertices +
                             out.snapshot_vertices) > 0 ||
                            state.snapshot_committed >= 0;
  const Round after_restored = restored_any ? max_round + 1 : 0;
  const Round propose_floor = std::max(state.propose_floor, snap_propose_floor);
  current_round_ = std::max(after_restored, propose_floor);
  if (propose_floor > 0) {
    proposed_any_ = true;
    last_proposed_ = propose_floor - 1;
  }
  out.resume_round = current_round_;
  return out;
}

bool SailfishNode::RestoreVertex(const Vertex& v, bool ordered) {
  if (dag_.Has(v.round, v.source)) {
    // Already present: a snapshot-frontier hole or a duplicate record. An
    // ordered WAL record for an unordered frontier hole still carries new
    // information — the straggler was ordered after the snapshot cut — and
    // must be marked or the live committer would re-emit it (MarkOrdered is
    // idempotent for genuine duplicates).
    if (ordered) {
      dag_.MarkOrdered(v.round, v.source);
    }
    return false;
  }
  if (dag_.StatusOf(v.round, v.source) == VertexStatus::kPruned) {
    return false;  // Below the snapshot floor: committed history, body elided.
  }
  if (!dag_.ParentsPresent(v)) {
    // A well-formed snapshot/WAL never produces this (capture and append
    // order respect causality); a corrupt or hand-edited record can. Skip it
    // rather than crash — the fetcher repairs real holes later.
    CLANDAG_WARN("node %u: dropping restored vertex (%llu, %u) with unresolved parents",
                 runtime_.id(), static_cast<unsigned long long>(v.round), v.source);
    return false;
  }
  if (!dag_.Insert(v)) {
    return false;
  }
  if (ordered) {
    dag_.MarkOrdered(v.round, v.source);
  }
  return true;
}

void SailfishNode::CaptureSnapshot(Round anchor_round, SnapshotData* out) const {
  out->last_committed = anchor_round;
  out->dag_floor = dag_.PrunedFloor();
  out->vertices.clear();
  out->ordered.clear();
  dag_.ForEachUpTo(out->last_committed, [out](const Vertex& v, bool ordered) {
    out->vertices.push_back(v);
    out->ordered.push_back(ordered ? 1 : 0);
  });
}

void SailfishNode::InstallSnapshot(NodeId from, SnapshotData snap) {
  if (static_cast<int64_t>(snap.last_committed) <= committer_.LastCommittedRound()) {
    return;  // Normal catch-up outran the transfer; stale.
  }
  CLANDAG_INFO("node %u: installing snapshot from %u (committed %llu, %zu vertices)",
               runtime_.id(), from, static_cast<unsigned long long>(snap.last_committed),
               snap.vertices.size());
  dag_.ResetToFrontier(snap.dag_floor);
  for (size_t i = 0; i < snap.vertices.size(); ++i) {
    const bool ordered = i < snap.ordered.size() && snap.ordered[i] != 0;
    RestoreVertex(snap.vertices[i], ordered);
  }
  committer_.AdvanceCommitted(static_cast<int64_t>(snap.last_committed));
  // Rounds at or below the new commit frontier are settled: drop the sync
  // and round bookkeeping the jump made dead.
  const Round floor = snap.last_committed + 1;
  fetcher_->PruneBelow(floor);
  dissem_->PruneBelow(snap.dag_floor);
  auto prune_round_map = [floor](auto& m) { m.erase(m.begin(), m.lower_bound(floor)); };
  prune_round_map(timeout_votes_);
  prune_round_map(tcs_);
  prune_round_map(novote_votes_);
  prune_round_map(nvcs_);
  while (!timeout_fired_.empty() && *timeout_fired_.begin() < floor) {
    timeout_fired_.erase(timeout_fired_.begin());
  }
  while (!no_voted_.empty() && *no_voted_.begin() < floor) {
    no_voted_.erase(no_voted_.begin());
  }
  // Let the SMR layer restore execution, persist the snapshot and cut its
  // WAL before this node proposes again (the proposal marker must land in
  // the post-cut log or a restart could self-equivocate).
  if (callbacks_.on_snapshot_installed) {
    callbacks_.on_snapshot_installed(snap);
  }
  if (current_round_ < floor) {
    current_round_ = floor;
    pending_proposal_.reset();
    if (!ProposeForRound(current_round_)) {
      pending_proposal_ = current_round_;
    }
    ScheduleTimeout(current_round_);
  }
  DrainFetcher();
  MaybeAdvance();
  TryPendingProposal();
}

void SailfishNode::SetHistoryProvider(DagStore::PrunedLookupFn fn) {
  dag_.SetPrunedLookup(std::move(fn));
}

void SailfishNode::SetSnapshotSource(FetchResponder::SnapshotSourceFn fn) {
  responder_->SetSnapshotSource(std::move(fn));
}

void SailfishNode::SetSnapshotBySeq(FetchResponder::SnapshotBySeqFn fn) {
  responder_->SetSnapshotBySeq(std::move(fn));
}

SyncStats SailfishNode::sync_stats() const {
  SyncStats s = fetcher_->stats();
  s += responder_->stats();
  return s;
}

void SailfishNode::OnMessage(NodeId from, MsgType type, const Bytes& payload) {
  if (dissem_->HandleMessage(from, type, payload)) {
    return;
  }
  switch (type) {
    case kConsTimeout:
      OnTimeoutMsg(from, payload);
      return;
    case kConsNoVote:
      OnNoVoteMsg(from, payload);
      return;
    case kConsFetchRequest:
      responder_->OnRequest(from, payload);
      return;
    case kConsFetchResponse:
      fetcher_->OnResponse(from, payload);
      DrainFetcher();
      MaybeAdvance();
      TryPendingProposal();
      return;
    case kConsSnapshotOffer:
      fetcher_->OnSnapshotOffer(from, payload);
      return;
    case kConsSnapshotChunkRequest:
      responder_->OnSnapshotChunkRequest(from, payload);
      return;
    case kConsSnapshotChunk:
      // The final chunk hands the decoded snapshot to InstallSnapshot
      // synchronously via the fetcher's deliver callback.
      fetcher_->OnSnapshotChunk(from, payload);
      return;
    default:
      CLANDAG_DEBUG("node %u: unknown message type %u (%s) from %u", runtime_.id(), type,
                    MsgTypeName(type), from);
  }
}

void SailfishNode::OnVertexVal(const Vertex& v) {
  // Sailfish's latency trick: leader votes are counted from the broadcast's
  // first message, one network delay before the RBC completes.
  committer_.CountVote(v);
}

void SailfishNode::OnVertexComplete(const Vertex& v, const Digest& digest) {
  if (!StructurallyValid(v)) {
    CLANDAG_WARN("node %u: rejecting structurally invalid vertex (%llu, %u)", runtime_.id(),
                 static_cast<unsigned long long>(v.round), v.source);
    return;
  }
  if (callbacks_.on_completed) {
    callbacks_.on_completed(v, digest);
  }
  TryAdmit(v, digest);
}

void SailfishNode::OnFetchedVertex(Vertex v, const Digest& digest) {
  // Same admission contract as an RBC completion: the digest was verified
  // against a completed child's edge, which establishes non-equivocation.
  if (!StructurallyValid(v)) {
    CLANDAG_WARN("node %u: rejecting structurally invalid fetched vertex (%llu, %u)",
                 runtime_.id(), static_cast<unsigned long long>(v.round), v.source);
    return;
  }
  if (callbacks_.on_completed) {
    callbacks_.on_completed(v, digest);
  }
  // No RBC ran locally, so the block push never happened; pull it if this
  // node is responsible for the vertex's block.
  dissem_->EnsureBlockPull(v, digest);
  TryAdmit(v, digest);
}

void SailfishNode::OnBlock(const BlockInfo& /*block*/) {
  // Blocks gate execution, not consensus; the SMR layer queries the
  // disseminator's block store when ordered vertices are executed.
}

bool SailfishNode::StructurallyValid(const Vertex& v) const {
  if (v.source >= config_.num_nodes) {
    return false;
  }
  if (v.round == 0) {
    return v.strong_edges.empty() && v.weak_edges.empty();
  }
  if (v.strong_edges.size() < config_.Quorum()) {
    return false;
  }
  // No duplicate strong-edge sources. Reusable scratch bitmap: this runs
  // once per completed vertex per node, and a per-call std::set was a top
  // allocation site at benchmark scale.
  dup_scratch_.assign(config_.num_nodes, 0);
  for (const StrongEdge& e : v.strong_edges) {
    if (e.source >= config_.num_nodes || dup_scratch_[e.source] != 0) {
      return false;
    }
    dup_scratch_[e.source] = 1;
  }
  for (const WeakEdge& e : v.weak_edges) {
    if (e.source >= config_.num_nodes || e.round + 1 >= v.round) {
      return false;
    }
  }
  return true;
}

bool SailfishNode::Justified(const Vertex& v) const {
  if (v.round == 0 || v.source != LeaderOf(v.round)) {
    return true;  // Only leader vertices need justification.
  }
  const Round prev = v.round - 1;
  if (v.HasStrongEdgeTo(LeaderOf(prev))) {
    return true;
  }
  if (v.nvc.has_value() && v.nvc->round == prev &&
      v.nvc->Verify(keychain_, config_.Quorum())) {
    return true;
  }
  if (v.tc.has_value() && v.tc->round == prev && v.tc->Verify(keychain_, config_.Quorum())) {
    return true;
  }
  return false;
}

void SailfishNode::TryAdmit(const Vertex& v, const Digest& digest) {
  if (dag_.Has(v.round, v.source)) {
    return;
  }
  if (!dag_.ParentsPresent(v)) {
    // Repair path: the fetcher owns its copy until the parents arrive.
    fetcher_->AddBlocked(v, digest);
    return;
  }
  if (AdmitNow(v, digest)) {
    DrainFetcher();
    MaybeAdvance();
    TryPendingProposal();
  }
}

bool SailfishNode::AdmitNow(const Vertex& v, const Digest& /*digest*/) {
  // Edge digests must match the vertices actually in the DAG (a Byzantine
  // vertex cannot smuggle in references to equivocated bodies). A parent in
  // a fully-pruned round is committed history whose digest the DAG no longer
  // holds; it was digest-checked when that round was live.
  for (const StrongEdge& e : v.strong_edges) {
    if (dag_.StatusOf(v.round - 1, e.source) == VertexStatus::kPruned) {
      continue;
    }
    const Digest* d = dag_.DigestOf(v.round - 1, e.source);
    if (d == nullptr || *d != e.digest) {
      return false;
    }
  }
  for (const WeakEdge& e : v.weak_edges) {
    if (dag_.StatusOf(e.round, e.source) == VertexStatus::kPruned) {
      continue;
    }
    const Digest* d = dag_.DigestOf(e.round, e.source);
    if (d == nullptr || *d != e.digest) {
      return false;
    }
  }
  if (!Justified(v)) {
    CLANDAG_WARN("node %u: rejecting unjustified leader vertex (%llu, %u)", runtime_.id(),
                 static_cast<unsigned long long>(v.round), v.source);
    return false;
  }
  const Round round = v.round;
  const NodeId source = v.source;
  if (!dag_.Insert(v)) {
    return false;
  }
  const Vertex* stored = dag_.Get(round, source);
  committer_.OnVertexAdded(*stored);
  return true;
}

void SailfishNode::DrainFetcher() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& [v, d] : fetcher_->TakeAdmissible()) {
      if (AdmitNow(std::move(v), d)) {
        progressed = true;
      }
    }
  }
}

void SailfishNode::MaybeAdvance() {
  while (true) {
    const Round r = current_round_;
    if (dag_.CountAtRound(r) < config_.Quorum()) {
      break;
    }
    const bool leader_seen = dag_.Has(r, LeaderOf(r));
    if (!leader_seen && !timeout_fired_.count(r)) {
      break;
    }
    current_round_ = r + 1;
    if (callbacks_.on_round_advance) {
      callbacks_.on_round_advance(current_round_);
    }
    if (!ProposeForRound(current_round_)) {
      pending_proposal_ = current_round_;
    }
    ScheduleTimeout(current_round_);
    GarbageCollect();
  }
}

void SailfishNode::TryPendingProposal() {
  if (pending_proposal_.has_value() && ProposeForRound(*pending_proposal_)) {
    pending_proposal_.reset();
  }
}

bool SailfishNode::ProposeForRound(Round round) {
  if (proposed_any_ && round <= last_proposed_) {
    return true;
  }
  Vertex v;
  v.round = round;
  v.source = runtime_.id();

  if (round > 0) {
    const Round prev = round - 1;
    const NodeId prev_leader = LeaderOf(prev);
    const bool exclude_prev_leader = no_voted_.count(prev) > 0;
    for (const Vertex* parent : dag_.VerticesAtRound(prev)) {
      if (exclude_prev_leader && parent->source == prev_leader) {
        continue;  // Vote/no-vote exclusivity: a no-voter must not vote.
      }
      const Digest* d = dag_.DigestOf(prev, parent->source);
      v.strong_edges.push_back(StrongEdge{parent->source, *d});
    }
    if (v.strong_edges.size() < config_.Quorum()) {
      // Happens only when excluding the previous leader dropped us to 2f:
      // wait for one more round-(r-1) vertex (TryPendingProposal retries).
      return false;
    }
    if (v.source == LeaderOf(round) && !v.HasStrongEdgeTo(prev_leader)) {
      // A leader skipping its predecessor must justify it.
      auto nvc_it = nvcs_.find(prev);
      auto tc_it = tcs_.find(prev);
      if (nvc_it != nvcs_.end()) {
        v.nvc = nvc_it->second;
      } else if (tc_it != tcs_.end()) {
        v.tc = tc_it->second;
      } else {
        return false;  // Wait for an NVC/TC.
      }
    }
    v.weak_edges = dag_.SelectWeakEdges(round);
  }

  std::optional<BlockInfo> block;
  if (topology_.ProposesBlocks(v.source) && block_source_ != nullptr) {
    block = block_source_->NextBlock(round, runtime_.Now());
    if (block.has_value()) {
      block->proposer = v.source;
      block->round = round;
      v.block_digest = block->ComputeDigest();
      v.block_tx_count = block->tx_count;
      v.block_created_at = block->created_at;
    }
  }

  proposed_any_ = true;
  last_proposed_ = round;
  if (callbacks_.on_propose) {
    // Durable proposal marker first: a node restarted after this point must
    // not propose a different round-`round` vertex (self-equivocation).
    callbacks_.on_propose(round);
  }
  dissem_->Propose(v, std::move(block));
  return true;
}

void SailfishNode::ScheduleTimeout(Round round) {
  runtime_.Schedule(config_.round_timeout, [this, round] { OnTimeout(round); });
}

void SailfishNode::OnTimeout(Round round) {
  if (current_round_ != round) {
    return;  // Stale timer from a round already left.
  }
  // Re-arm while stuck in this round (bounded, so drained simulations still
  // reach idle). Every re-fire doubles as an anti-entropy beat: broadcasts
  // are sent exactly once and the liveness argument assumes reliable
  // channels, so after real loss (partition, crash, reconnect) somebody has
  // to re-offer state or a healed cluster can stay wedged forever.
  if (round != timeout_round_) {
    timeout_round_ = round;
    timeout_repeats_ = 0;
  }
  if (++timeout_repeats_ <= kMaxTimeoutRebroadcasts) {
    ScheduleTimeout(round);
  }
  if (!dag_.Has(round, LeaderOf(round)) && timeout_fired_.insert(round).second) {
    no_voted_.insert(round);
  }
  if (timeout_fired_.count(round)) {
    // (Re-)send the timeout vote and no-vote; peers deduplicate.
    TimeoutMsg to;
    to.round = round;
    to.sig = keychain_.Sign(runtime_.id(), TimeoutCert::SignedMessage(round));
    runtime_.Broadcast(kConsTimeout, to.Encode());
    NoVoteMsg nv;
    nv.round = round;
    nv.sig = keychain_.Sign(runtime_.id(), NoVoteCert::SignedMessage(round));
    runtime_.Send(LeaderOf(round + 1), kConsNoVote, nv.Encode());
  }
  if (timeout_repeats_ > 1) {
    // Still in the same round a full timeout later: re-offer our latest
    // vertex so stragglers can complete it and start catching up.
    dissem_->RebroadcastLatest();
    TryPendingProposal();
  }
  MaybeAdvance();
}

void SailfishNode::OnTimeoutMsg(NodeId from, const Bytes& payload) {
  auto msg = TimeoutMsg::Decode(payload);
  if (!msg.has_value() ||
      !keychain_.Verify(from, TimeoutCert::SignedMessage(msg->round), msg->sig)) {
    return;
  }
  auto [it, inserted] = timeout_votes_.try_emplace(msg->round, config_.num_nodes);
  if (!it->second.Add(from, false, msg->sig)) {
    return;
  }
  if (it->second.Count() >= config_.Quorum() && !tcs_.count(msg->round)) {
    TimeoutCert tc;
    tc.round = msg->round;
    tc.sig = it->second.BuildCert();
    tcs_.emplace(msg->round, std::move(tc));
    TryPendingProposal();
  }
}

void SailfishNode::OnNoVoteMsg(NodeId from, const Bytes& payload) {
  auto msg = NoVoteMsg::Decode(payload);
  if (!msg.has_value() ||
      !keychain_.Verify(from, NoVoteCert::SignedMessage(msg->round), msg->sig)) {
    return;
  }
  if (LeaderOf(msg->round + 1) != runtime_.id()) {
    return;  // Only the next leader aggregates no-votes.
  }
  auto [it, inserted] = novote_votes_.try_emplace(msg->round, config_.num_nodes);
  if (!it->second.Add(from, false, msg->sig)) {
    return;
  }
  if (it->second.Count() >= config_.Quorum() && !nvcs_.count(msg->round)) {
    NoVoteCert nvc;
    nvc.round = msg->round;
    nvc.sig = it->second.BuildCert();
    nvcs_.emplace(msg->round, std::move(nvc));
    TryPendingProposal();
  }
}

void SailfishNode::GarbageCollect() {
  const int64_t committed = committer_.LastCommittedRound();
  if (committed < static_cast<int64_t>(config_.gc_depth)) {
    return;
  }
  Round floor = static_cast<Round>(committed) - config_.gc_depth;
  // Fetch-aware floor: never prune a round the fetcher still needs, else a
  // straggler this node is repairing would become unorderable here while
  // peers order it under a later anchor (divergence).
  if (std::optional<Round> pinned = fetcher_->OldestPinnedRound();
      pinned.has_value() && *pinned < floor) {
    floor = *pinned;
  }
  dag_.PruneBelow(floor);
  dissem_->PruneBelow(floor);
  fetcher_->PruneBelow(floor);
  auto prune_round_map = [floor](auto& m) {
    m.erase(m.begin(), m.lower_bound(floor));
  };
  prune_round_map(timeout_votes_);
  prune_round_map(tcs_);
  prune_round_map(novote_votes_);
  prune_round_map(nvcs_);
  while (!timeout_fired_.empty() && *timeout_fired_.begin() < floor) {
    timeout_fired_.erase(timeout_fired_.begin());
  }
  while (!no_voted_.empty() && *no_voted_.begin() < floor) {
    no_voted_.erase(no_voted_.begin());
  }
}

}  // namespace clandag
