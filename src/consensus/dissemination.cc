#include "consensus/dissemination.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "common/pool.h"

namespace clandag {

namespace {

// A vertex or block pull asks this many holders at once and, until the body
// arrives, asks the next ones every kPullRetry.
constexpr uint32_t kPullFanout = 2;
constexpr TimeMicros kPullRetry = Millis(250);

// Reusable scratch for the signed-message preimage of echo votes; one is
// built per echo sent/verified, so a fresh heap buffer each time would show
// up on the allocator profile. thread_local: verification may run on a
// work-pool thread (common/work_pool.h) concurrently with the consensus
// thread signing.
const Bytes& SignedVoteScratch(MsgType type, NodeId sender, Round round, const Digest& digest) {
  thread_local Bytes scratch;
  Writer w(std::move(scratch));
  RbcVoteMsg::SignedMessageTo(w, type, sender, round, digest);
  scratch = w.Take();
  return scratch;
}

}  // namespace

VertexDisseminator::VertexDisseminator(Runtime& runtime, const Keychain& keychain,
                                       const ClanTopology& topology, DisseminationConfig config,
                                       DisseminationCallbacks callbacks)
    : runtime_(runtime),
      keychain_(keychain),
      topology_(topology),
      config_(config),
      callbacks_(std::move(callbacks)) {
  CLANDAG_CHECK(config_.num_nodes > 0);
}

VertexDisseminator::Instance& VertexDisseminator::GetInstance(NodeId source, Round round) {
  return instances_[{source, round}];
}

const VertexDisseminator::Instance* VertexDisseminator::FindInstance(NodeId source,
                                                                     Round round) const {
  auto it = instances_.find({source, round});
  return it == instances_.end() ? nullptr : &it->second;
}

void VertexDisseminator::Propose(const Vertex& v, std::optional<BlockInfo> block) {
  CLANDAG_CHECK(v.source == runtime_.id());
  CLANDAG_CHECK(v.HasBlock() == block.has_value());
  if (block.has_value()) {
    CLANDAG_CHECK_MSG(block->ComputeDigest() == v.block_digest, "block/vertex digest mismatch");
  }

  // Vertex (metadata) to the entire tribe: serialized once into a pooled
  // buffer, the same bytes enqueued per peer. The shared handle doubles as
  // the anti-entropy rebroadcast copy (RebroadcastLatest).
  last_val_bytes_ = EncodeToShared([&](Writer& w) { v.Serialize(w); });
  runtime_.Broadcast(kConsVertexVal, last_val_bytes_);

  // Block only to the serving clan, with its modelled wire size.
  if (block.has_value()) {
    const size_t wire = block->WireSize();
    runtime_.Multicast(topology_.BlockRecipients(v.source), kConsBlock,
                       EncodeToShared([&](Writer& w) { block->Serialize(w); }), wire);
  }
}

bool VertexDisseminator::HandleMessage(NodeId from, MsgType type, const Bytes& payload) {
  switch (type) {
    case kConsVertexVal:
      OnVertexVal(from, payload);
      return true;
    case kConsBlock:
      OnBlock(from, payload);
      return true;
    case kConsEcho:
      OnEcho(from, payload);
      return true;
    case kConsReady:
      OnReady(from, payload);
      return true;
    case kConsCert:
      OnCert(from, payload);
      return true;
    case kConsVertexPullReq:
      OnVertexPullReq(from, payload);
      return true;
    case kConsVertexPullResp:
      OnVertexPullResp(from, payload);
      return true;
    case kConsBlockPullReq:
      OnBlockPullReq(from, payload);
      return true;
    case kConsBlockPullResp:
      OnBlockPullResp(from, payload);
      return true;
    default:
      return false;
  }
}

bool VertexDisseminator::HasBlock(NodeId source, Round round) const {
  const Instance* inst = FindInstance(source, round);
  return inst != nullptr && inst->block.has_value() && inst->block_verified;
}

const BlockInfo* VertexDisseminator::GetBlock(NodeId source, Round round) const {
  const Instance* inst = FindInstance(source, round);
  if (inst == nullptr || !inst->block.has_value() || !inst->block_verified) {
    return nullptr;
  }
  return &*inst->block;
}

bool VertexDisseminator::HasCompleted(NodeId source, Round round) const {
  const Instance* inst = FindInstance(source, round);
  return inst != nullptr && inst->completed;
}

size_t VertexDisseminator::EchoSignatureCapacity(NodeId source, Round round) const {
  const Instance* inst = FindInstance(source, round);
  size_t total = 0;
  if (inst != nullptr) {
    for (const auto& entry : inst->echoes) {
      total += entry.second.SignatureCapacity();
    }
  }
  return total;
}

void VertexDisseminator::PruneBelow(Round round) {
  prune_floor_ = std::max(prune_floor_, round);
  for (auto it = instances_.begin(); it != instances_.end();) {
    if (it->first.second < round) {
      it = instances_.erase(it);
    } else {
      ++it;
    }
  }
}

void VertexDisseminator::EnsureBlockPull(const Vertex& v, const Digest& digest) {
  Instance& inst = GetInstance(v.source, v.round);
  if (!inst.vertex.has_value()) {
    inst.vertex = v;
    inst.vertex_digest = digest;
  }
  if (!v.HasBlock() || !topology_.ReceivesBlocksOf(v.source, runtime_.id())) {
    return;
  }
  if ((inst.block.has_value() && inst.block_verified) || inst.pulling_block) {
    return;
  }
  StartBlockPull(v.source, v.round);
}

bool VertexDisseminator::NeedsBlockToEcho(const Vertex& v) const {
  return v.HasBlock() && topology_.ReceivesBlocksOf(v.source, runtime_.id());
}

void VertexDisseminator::AcceptVertexBody(NodeId source, Round round, Instance& inst, Vertex v,
                                          const Digest& digest) {
  const bool first_body = !inst.vertex.has_value();
  if (first_body) {
    inst.vertex = std::move(v);
    inst.vertex_digest = digest;
  } else if (inst.vertex_digest != digest && inst.awaiting_vertex &&
             digest == inst.decided_digest) {
    // The sender equivocated and the quorum decided the other body.
    inst.vertex = std::move(v);
    inst.vertex_digest = digest;
  }

  if (first_body) {
    // Verify any block that arrived ahead of its vertex.
    if (inst.block.has_value() && !inst.block_verified) {
      if (inst.block->ComputeDigest() == inst.vertex->block_digest) {
        inst.block_verified = true;
        callbacks_.on_block(*inst.block);
      } else {
        inst.block.reset();
      }
    }
    callbacks_.on_vertex_val(*inst.vertex);
  }

  MaybeEcho(source, round, inst);
  if (inst.awaiting_vertex && inst.vertex_digest == inst.decided_digest) {
    Complete(source, round, inst);
  }
}

void VertexDisseminator::ReplyCompletionEvidence(NodeId from, NodeId source, Round round,
                                                 Instance& inst) {
  if (from == runtime_.id()) {
    return;
  }
  if (inst.evidence_sent.num_parties() == 0) {
    inst.evidence_sent = SignerBitmap(config_.num_nodes);
  }
  if (inst.evidence_sent.Test(from)) {
    return;  // At most one repair reply per peer per instance.
  }
  inst.evidence_sent.Set(from);
  if (config_.flavor == RbcFlavor::kTwoRound) {
    if (inst.cert_bytes != nullptr) {
      runtime_.Send(from, kConsCert, inst.cert_bytes, inst.cert_bytes->size());
    }
    return;
  }
  // Bracha has no certificates; re-send this node's READY. Every completed
  // peer does the same, so the straggler reassembles a READY quorum.
  RbcVoteMsg ready;
  ready.sender = source;
  ready.round = round;
  ready.digest = inst.decided_digest;
  runtime_.Send(from, kConsReady, ready.Encode());
}

void VertexDisseminator::RebroadcastLatest() {
  if (last_val_bytes_ != nullptr) {
    runtime_.Broadcast(kConsVertexVal, last_val_bytes_);
  }
}

void VertexDisseminator::OnVertexVal(NodeId from, const Bytes& payload) {
  auto v = DecodeVertex(payload);
  if (!v.has_value() || v->source != from || v->source >= config_.num_nodes) {
    return;  // A vertex VAL must come from its own source.
  }
  // Non-clan proposers must not attach blocks in single-clan mode.
  if (v->HasBlock() && !topology_.ProposesBlocks(v->source)) {
    return;
  }
  Round round = v->round;
  Digest digest = Digest::Of(payload);
  Instance& inst = GetInstance(from, round);
  AcceptVertexBody(from, round, inst, std::move(*v), digest);
}

void VertexDisseminator::AcceptBlock(Instance& inst, BlockInfo block) {
  if (inst.block.has_value()) {
    return;
  }
  if (inst.vertex.has_value()) {
    if (block.ComputeDigest() != inst.vertex->block_digest) {
      return;  // Block does not match the vertex; drop.
    }
    inst.block = std::move(block);
    inst.block_verified = true;
    callbacks_.on_block(*inst.block);
  } else {
    // Vertex not seen yet; hold the block, verify on vertex arrival.
    inst.block = std::move(block);
    inst.block_verified = false;
  }
}

void VertexDisseminator::OnBlock(NodeId from, const Bytes& payload) {
  auto block = DecodeBlock(payload);
  if (!block.has_value() || block->proposer != from || block->proposer >= config_.num_nodes) {
    return;
  }
  if (!topology_.ReceivesBlocksOf(block->proposer, runtime_.id())) {
    return;  // Not our clan's payload.
  }
  NodeId source = block->proposer;
  Round round = block->round;
  Instance& inst = GetInstance(source, round);
  AcceptBlock(inst, std::move(*block));
  MaybeEcho(source, round, inst);
}

void VertexDisseminator::MaybeEcho(NodeId source, Round round, Instance& inst) {
  if (inst.echoed || !inst.vertex.has_value()) {
    return;
  }
  if (NeedsBlockToEcho(*inst.vertex) && !(inst.block.has_value() && inst.block_verified)) {
    return;  // Clan members echo only with vertex AND block in hand (§5).
  }
  inst.echoed = true;
  RbcVoteMsg echo;
  echo.sender = source;
  echo.round = round;
  echo.digest = inst.vertex_digest;
  if (config_.flavor == RbcFlavor::kTwoRound) {
    echo.sig = keychain_.Sign(
        runtime_.id(), SignedVoteScratch(kConsEcho, source, round, inst.vertex_digest));
  }
  runtime_.Broadcast(kConsEcho, EncodeToShared([&](Writer& w) { echo.EncodeTo(w); }));
}

void VertexDisseminator::OnEcho(NodeId from, const Bytes& payload) {
  auto msg = RbcVoteMsg::Decode(payload);
  if (!msg.has_value() || msg->sender >= config_.num_nodes || msg->round < prune_floor_) {
    return;
  }
  if (config_.flavor == RbcFlavor::kTwoRound) {
    if (!msg->sig.has_value()) {
      return;
    }
    if (config_.verify_signatures) {
      if (config_.verify_pool != nullptr) {
        // Authenticate on a worker; the rest of the handler runs when the
        // result comes back in receive order.
        const RbcVoteMsg m = *msg;
        config_.verify_pool->Submit(
            [this, from, m] {
              return keychain_.Verify(
                  from, SignedVoteScratch(kConsEcho, m.sender, m.round, m.digest), *m.sig);
            },
            [this, from, m](bool ok) {
              if (ok) {
                ProcessEcho(from, m);
              }
            });
        return;
      }
      if (!keychain_.Verify(from,
                            SignedVoteScratch(kConsEcho, msg->sender, msg->round, msg->digest),
                            *msg->sig)) {
        return;
      }
    }
  }
  ProcessEcho(from, *msg);
}

void VertexDisseminator::ProcessEcho(NodeId from, const RbcVoteMsg& msg) {
  if (msg.round < prune_floor_) {
    return;  // Committed and pruned while the echo sat in the verify pool.
  }
  Instance& inst = GetInstance(msg.sender, msg.round);
  if (inst.completed) {
    // Late echo: `from` is still working on an instance this node finished
    // long ago — it likely lost the original traffic to a partition or a
    // crash. Re-send the completion evidence so it can finish too; this is
    // the repair path that lets a healed cluster un-wedge.
    ReplyCompletionEvidence(from, msg.sender, msg.round, inst);
    return;
  }
  auto [it, inserted] = inst.echoes.try_emplace(msg.digest, config_.num_nodes);
  VoteTracker& tracker = it->second;
  if (inserted && inst.awaiting_vertex) {
    tracker.Seal();  // Past quorum: see OnQuorum.
  }
  if (!tracker.Add(from, topology_.ReceivesBlocksOf(msg.sender, from), msg.sig)) {
    return;
  }
  const bool quorum = tracker.Count() >= config_.Quorum() &&
                      tracker.ClanCount() >= topology_.ClanQuorumFor(msg.sender);
  if (!quorum) {
    return;
  }
  if (config_.flavor == RbcFlavor::kTwoRound) {
    if (inst.completed || inst.awaiting_vertex) {
      return;
    }
    RbcCertMsg cert;
    cert.sender = msg.sender;
    cert.round = msg.round;
    cert.digest = msg.digest;
    cert.sig = tracker.BuildCert();
    inst.cert_bytes = EncodeToShared([&](Writer& w) { cert.EncodeTo(w); });
    if (config_.multicast_cert) {
      runtime_.Broadcast(kConsCert, inst.cert_bytes);
    }
    OnQuorum(msg.sender, msg.round, inst, msg.digest);
  } else {
    // Bracha: 2f+1 ECHO (with clan threshold) triggers READY.
    if (!inst.ready_sent) {
      inst.ready_sent = true;
      RbcVoteMsg ready;
      ready.sender = msg.sender;
      ready.round = msg.round;
      ready.digest = msg.digest;
      runtime_.Broadcast(kConsReady, EncodeToShared([&](Writer& w) { ready.EncodeTo(w); }));
    }
  }
}

void VertexDisseminator::OnReady(NodeId from, const Bytes& payload) {
  if (config_.flavor != RbcFlavor::kBracha) {
    return;
  }
  auto msg = RbcVoteMsg::Decode(payload);
  if (!msg.has_value() || msg->sender >= config_.num_nodes || msg->round < prune_floor_) {
    return;
  }
  Instance& inst = GetInstance(msg->sender, msg->round);
  auto [it, inserted] = inst.readies.try_emplace(msg->digest, config_.num_nodes);
  VoteTracker& tracker = it->second;
  if (!tracker.Add(from, topology_.ReceivesBlocksOf(msg->sender, from), std::nullopt)) {
    return;
  }
  if (tracker.Count() >= config_.ReadyAmplify() && !inst.ready_sent) {
    inst.ready_sent = true;
    RbcVoteMsg ready;
    ready.sender = msg->sender;
    ready.round = msg->round;
    ready.digest = msg->digest;
    runtime_.Broadcast(kConsReady, EncodeToShared([&](Writer& w) { ready.EncodeTo(w); }));
  }
  if (tracker.Count() >= config_.Quorum()) {
    OnQuorum(msg->sender, msg->round, inst, msg->digest);
  }
}

void VertexDisseminator::OnCert(NodeId from, const Bytes& payload) {
  if (config_.flavor != RbcFlavor::kTwoRound) {
    return;
  }
  auto msg = RbcCertMsg::Decode(payload);
  if (!msg.has_value() || msg->sender >= config_.num_nodes || msg->round < prune_floor_) {
    return;
  }
  // ProcessCert drops a cert for an instance that already has its quorum,
  // and neither flag ever clears, so skip the checks and the multisig HMACs.
  // FindInstance: a redundant or bogus cert must not create an instance.
  if (const Instance* inst = FindInstance(msg->sender, msg->round);
      inst != nullptr && (inst->completed || inst->awaiting_vertex)) {
    return;
  }
  // Structural checks are cheap and stay on this thread; only the multisig
  // evaluation (one HMAC per signer) is worth shipping to the pool.
  if (msg->sig.Count() < config_.Quorum()) {
    return;
  }
  uint32_t clan_signers = 0;
  for (NodeId id : topology_.BlockRecipients(msg->sender)) {
    if (msg->sig.signers().Test(id)) {
      ++clan_signers;
    }
  }
  if (clan_signers < topology_.ClanQuorumFor(msg->sender)) {
    return;
  }
  if (config_.verify_signatures) {
    if (config_.verify_pool != nullptr) {
      // allocate_shared through the NodeArena: the cert + control block
      // recycle through pool slots instead of hitting the heap per cert.
      auto m = std::allocate_shared<const RbcCertMsg>(NodeAllocator<RbcCertMsg>(),
                                                      std::move(*msg));
      config_.verify_pool->Submit(
          [this, m] {
            return m->sig.Verify(keychain_,
                                 SignedVoteScratch(kConsEcho, m->sender, m->round, m->digest));
          },
          [this, from, m](bool ok) {
            if (ok) {
              ProcessCert(from, *m);
            }
          });
      return;
    }
    if (!msg->sig.Verify(keychain_,
                         SignedVoteScratch(kConsEcho, msg->sender, msg->round, msg->digest))) {
      return;
    }
  }
  ProcessCert(from, *msg);
}

void VertexDisseminator::ProcessCert(NodeId /*from*/, const RbcCertMsg& msg) {
  if (msg.round < prune_floor_) {
    return;  // Committed and pruned while the cert sat in the verify pool.
  }
  Instance& inst = GetInstance(msg.sender, msg.round);
  if (inst.completed || inst.awaiting_vertex) {
    return;
  }
  // Verified evidence, kept for peer repair. Re-encoded (canonically, equal
  // to the received frame) into a pooled shared buffer so repair sends
  // enqueue it without copying.
  inst.cert_bytes = EncodeToShared([&](Writer& w) { msg.EncodeTo(w); });
  OnQuorum(msg.sender, msg.round, inst, msg.digest);
}

void VertexDisseminator::OnQuorum(NodeId source, Round round, Instance& inst,
                                  const Digest& digest) {
  if (inst.completed || inst.awaiting_vertex) {
    return;
  }
  // No certificate is built past quorum (the two-round flavour holds one by
  // now), so free the echo signatures; the voters stay, since the pulls pick
  // their holders from them.
  for (auto& entry : inst.echoes) {
    entry.second.Seal();
  }
  inst.decided_digest = digest;
  if (inst.vertex.has_value() && inst.vertex_digest == digest) {
    Complete(source, round, inst);
    return;
  }
  // Quorum reached without (a matching) vertex body: download it off the
  // critical path and complete on arrival.
  inst.awaiting_vertex = true;
  StartVertexPull(source, round);
}

void VertexDisseminator::Complete(NodeId source, Round round, Instance& inst) {
  if (inst.completed) {
    return;
  }
  inst.completed = true;
  inst.awaiting_vertex = false;
  // Kick off the block download for clan members that still miss it; this
  // gates execution only, never consensus progress.
  if (NeedsBlockToEcho(*inst.vertex) && !(inst.block.has_value() && inst.block_verified)) {
    StartBlockPull(source, round);
  }
  callbacks_.on_vertex_complete(*inst.vertex, inst.vertex_digest);
}

void VertexDisseminator::StartVertexPull(NodeId source, Round round) {
  Instance& inst = GetInstance(source, round);
  if (!inst.awaiting_vertex || inst.completed) {
    return;
  }
  // Every echoer of the decided digest holds the vertex body.
  std::vector<NodeId> holders;
  auto it = inst.echoes.find(inst.decided_digest);
  if (it != inst.echoes.end()) {
    holders = it->second.voters().Ids();
  }
  if (holders.empty()) {
    return;
  }
  ConsPullMsg req;
  req.source = source;
  req.round = round;
  auto req_bytes = EncodeToShared([&](Writer& w) { req.EncodeTo(w); });
  for (uint32_t i = 0; i < kPullFanout; ++i) {
    NodeId target = holders[(inst.pull_rr + i) % holders.size()];
    if (target != runtime_.id()) {
      runtime_.Send(target, kConsVertexPullReq, req_bytes, req_bytes->size());
    }
  }
  inst.pull_rr += kPullFanout;
  // The retry finds the instance rather than re-creating it: a pull that
  // outlives a PruneBelow of its round has nothing left to resume.
  runtime_.Schedule(kPullRetry, [this, source, round] {
    if (FindInstance(source, round) != nullptr) {
      StartVertexPull(source, round);
    }
  });
}

void VertexDisseminator::StartBlockPull(NodeId source, Round round) {
  Instance& inst = GetInstance(source, round);
  if (inst.block.has_value() && inst.block_verified) {
    return;
  }
  inst.pulling_block = true;
  // Ask clan members that echoed (they held the block when echoing); fall
  // back to the whole clan when no echo is recorded locally.
  std::vector<NodeId> holders;
  if (inst.vertex.has_value()) {
    auto it = inst.echoes.find(inst.vertex_digest);
    if (it != inst.echoes.end()) {
      holders = it->second.ClanVoters(topology_.BlockRecipients(source));
    }
  }
  if (holders.empty()) {
    holders = topology_.BlockRecipients(source);
  }
  ConsPullMsg req;
  req.source = source;
  req.round = round;
  auto req_bytes = EncodeToShared([&](Writer& w) { req.EncodeTo(w); });
  for (uint32_t i = 0; i < kPullFanout; ++i) {
    NodeId target = holders[(inst.pull_rr + i) % holders.size()];
    if (target != runtime_.id()) {
      runtime_.Send(target, kConsBlockPullReq, req_bytes, req_bytes->size());
    }
  }
  inst.pull_rr += kPullFanout;
  runtime_.Schedule(kPullRetry, [this, source, round] {
    const Instance* retry_inst = FindInstance(source, round);
    if (retry_inst != nullptr && retry_inst->pulling_block &&
        !(retry_inst->block.has_value() && retry_inst->block_verified)) {
      StartBlockPull(source, round);
    }
  });
}

void VertexDisseminator::OnVertexPullReq(NodeId from, const Bytes& payload) {
  auto msg = ConsPullMsg::Decode(payload);
  if (!msg.has_value()) {
    return;
  }
  const Instance* inst = FindInstance(msg->source, msg->round);
  if (inst == nullptr || !inst->vertex.has_value()) {
    return;
  }
  const Vertex& stored = *inst->vertex;
  auto resp = EncodeToShared([&](Writer& w) { stored.Serialize(w); });
  runtime_.Send(from, kConsVertexPullResp, resp, resp->size());
}

void VertexDisseminator::OnVertexPullResp(NodeId /*from*/, const Bytes& payload) {
  auto v = DecodeVertex(payload);
  if (!v.has_value() || v->source >= config_.num_nodes) {
    return;
  }
  NodeId source = v->source;
  Round round = v->round;
  Digest digest = Digest::Of(payload);
  Instance& inst = GetInstance(source, round);
  AcceptVertexBody(source, round, inst, std::move(*v), digest);
}

void VertexDisseminator::OnBlockPullReq(NodeId from, const Bytes& payload) {
  auto msg = ConsPullMsg::Decode(payload);
  if (!msg.has_value()) {
    return;
  }
  const Instance* inst = FindInstance(msg->source, msg->round);
  if (inst == nullptr || !inst->block.has_value() || !inst->block_verified) {
    return;
  }
  const size_t wire = inst->block->WireSize();
  const BlockInfo& stored = *inst->block;
  runtime_.Send(from, kConsBlockPullResp,
                EncodeToShared([&](Writer& w) { stored.Serialize(w); }), wire);
}

void VertexDisseminator::OnBlockPullResp(NodeId /*from*/, const Bytes& payload) {
  auto block = DecodeBlock(payload);
  if (!block.has_value() || block->proposer >= config_.num_nodes) {
    return;
  }
  NodeId source = block->proposer;
  Round round = block->round;
  Instance& inst = GetInstance(source, round);
  AcceptBlock(inst, std::move(*block));
  if (inst.block.has_value() && inst.block_verified) {
    inst.pulling_block = false;  // Ends the retry loop.
  }
  MaybeEcho(source, round, inst);
}

}  // namespace clandag
