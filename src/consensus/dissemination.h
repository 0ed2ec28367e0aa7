// Merged vertex + block dissemination (paper §5, "Efficiently propagating
// the vertex and the block").
//
// One broadcast instance per (source, round) integrates the standard RBC of
// the vertex with the tribe-assisted RBC of its block:
//  - the sender broadcasts the vertex to the whole tribe and the block only
//    to BlockRecipients(sender) (its clan);
//  - recipients of the block ECHO only once they hold vertex AND block;
//    everyone else ECHOes after the vertex alone (the vertex carries the
//    block digest);
//  - completion needs 2f+1 ECHOs including f_c+1 from the clan (two-round
//    flavour assembles/accepts an echo-certificate, Bracha flavour runs the
//    READY phase).
//
// Completion is independent of holding the block: consensus progress never
// waits on a payload download (paper §5). Clan members missing a block pull
// it off the critical path; a vertex body missing at completion (Byzantine
// sender) is pulled from echoers.
//
// With ClanTopology::Full this is exactly the baseline Sailfish vertex RBC
// where payloads travel inside proposals.

#ifndef CLANDAG_CONSENSUS_DISSEMINATION_H_
#define CLANDAG_CONSENSUS_DISSEMINATION_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/hot_path.h"
#include "common/pool.h"
#include "common/quorum.h"
#include "common/work_pool.h"
#include "consensus/clan.h"
#include "consensus/wire.h"
#include "crypto/keychain.h"
#include "net/runtime.h"
#include "rbc/quorum.h"

namespace clandag {

enum class RbcFlavor {
  kTwoRound,  // Signed, certificate-based (paper Figure 3; evaluation default).
  kBracha,    // Signature-free, READY-based (paper Figure 2).
};

struct DisseminationConfig {
  uint32_t num_nodes = 0;
  uint32_t num_faults = 0;
  RbcFlavor flavor = RbcFlavor::kTwoRound;
  // Multicast the echo-certificate (Figure 3 step 3). Off = good-case
  // optimization where every party assembles its own certificate.
  bool multicast_cert = true;
  // Cryptographically check echo signatures / certificates. Large-scale
  // simulation benches turn this off: the simulator models verification
  // *time* through its CPU-cost hook, and burning host CPU on HMACs would
  // only slow the experiment down. Always on in tests and real transports.
  bool verify_signatures = true;
  // Optional off-thread verification (common/work_pool.h). When set (and
  // verify_signatures is on), echo HMACs and certificate multisigs are
  // checked on the pool's workers and the remaining handler logic runs when
  // the in-order result comes back. Null = verify inline. The pool must
  // outlive the disseminator's runtime callbacks — in practice: owner
  // destroys the disseminator (or stops the transport) before the pool.
  OrderedVerifyPool* verify_pool = nullptr;

  uint32_t Quorum() const { return ByzantineQuorum(num_faults); }
  uint32_t ReadyAmplify() const { return ReadyAmplifyThreshold(num_faults); }
};

struct DisseminationCallbacks {
  // First sight of a vertex body (the VAL "first message"): Sailfish counts
  // leader votes from these to reach its 1 RBC + 1δ commit latency.
  std::function<void(const Vertex&)> on_vertex_val;
  // Broadcast completion: non-equivocation + guaranteed delivery established
  // for this vertex; safe to add to the DAG.
  std::function<void(const Vertex&, const Digest&)> on_vertex_complete;
  // A block this node is responsible for has been received (via push or pull).
  std::function<void(const BlockInfo&)> on_block;
};

class VertexDisseminator {
 public:
  VertexDisseminator(Runtime& runtime, const Keychain& keychain, const ClanTopology& topology,
                     DisseminationConfig config, DisseminationCallbacks callbacks);

  VertexDisseminator(const VertexDisseminator&) = delete;
  VertexDisseminator& operator=(const VertexDisseminator&) = delete;

  // Broadcasts this node's vertex for a round; `block` must be set iff the
  // vertex carries a block digest.
  // cold: once per round per node, not per message.
  CLANDAG_COLD void Propose(const Vertex& v, std::optional<BlockInfo> block);

  // Routes a consensus dissemination message; false if not ours.
  CLANDAG_HOT bool HandleMessage(NodeId from, MsgType type, const Bytes& payload);

  bool HasBlock(NodeId source, Round round) const;
  const BlockInfo* GetBlock(NodeId source, Round round) const;
  bool HasCompleted(NodeId source, Round round) const;
  // Instances tracked, below-floor ones already pruned.
  size_t NumInstances() const { return instances_.size(); }
  // Signatures' worth of storage held by an instance's echo trackers (for
  // tests; 0 for an unknown instance).
  size_t EchoSignatureCapacity(NodeId source, Round round) const;

  // Drops bookkeeping for instances below `round` (post-commit GC).
  void PruneBelow(Round round);

  // Called for a vertex that entered the DAG through the sync fetcher (no
  // RBC ran locally): records the body so pulls can be served, and starts a
  // block pull if this node is responsible for the vertex's block.
  void EnsureBlockPull(const Vertex& v, const Digest& digest);

  // Anti-entropy: re-broadcasts this node's most recent Propose() VAL.
  // Idempotent at receivers; the consensus layer calls it on repeated round
  // timeouts so peers that lost traffic (partition, crash, reconnect) learn
  // about the current frontier and can start completing/fetching. Without a
  // re-delivery path a healed cluster can stay wedged forever: broadcasts
  // are sent exactly once and the protocol's liveness argument assumes
  // reliable channels.
  void RebroadcastLatest();

 private:
  struct Instance {
    std::optional<Vertex> vertex;  // First body received.
    Digest vertex_digest;
    std::optional<BlockInfo> block;
    bool block_verified = false;  // Matches vertex.block_digest.
    bool echoed = false;
    bool ready_sent = false;
    bool completed = false;
    bool awaiting_vertex = false;  // Quorum met, body missing.
    bool pulling_block = false;
    Digest decided_digest;
    // NodeArena-backed (common/pool.h): echo/ready tracker nodes erased by
    // PruneBelow recycle into the next instance's quorum bookkeeping.
    ArenaMap<Digest, VoteTracker> echoes;
    ArenaMap<Digest, VoteTracker> readies;
    uint32_t pull_rr = 0;
    // Completion evidence (two-round flavour: the encoded echo-certificate;
    // null for Bracha, which re-READYs). Shared, not copied: every echo
    // that lands after completion — ~n - 2f-1 per instance in the good
    // case — gets this buffer re-enqueued verbatim, so a per-reply copy
    // would dominate the allocator profile at n = 150. The pool's caps are
    // sized to tolerate these instance-lifetime pins (see pool.h).
    std::shared_ptr<const Bytes> cert_bytes;
    // Peers already sent evidence, so a spammed echo can't amplify.
    // Lazily sized on first repair reply (most instances never need it).
    SignerBitmap evidence_sent;
  };

  CLANDAG_HOT Instance& GetInstance(NodeId source, Round round);
  CLANDAG_HOT const Instance* FindInstance(NodeId source, Round round) const;

  bool NeedsBlockToEcho(const Vertex& v) const;
  CLANDAG_HOT void MaybeEcho(NodeId source, Round round, Instance& inst);
  // Late echo from `from` for a completed instance: re-send the completion
  // evidence (cert / own READY) so the straggler can finish the RBC too.
  // cold: repair path, fires only for post-completion stragglers.
  CLANDAG_COLD void ReplyCompletionEvidence(NodeId from, NodeId source, Round round,
                                            Instance& inst);
  CLANDAG_HOT void OnQuorum(NodeId source, Round round, Instance& inst, const Digest& digest);
  CLANDAG_HOT void Complete(NodeId source, Round round, Instance& inst);
  // cold: pulls are the Byzantine-sender / lossy-network repair path.
  CLANDAG_COLD void StartVertexPull(NodeId source, Round round);
  CLANDAG_COLD void StartBlockPull(NodeId source, Round round);

  CLANDAG_HOT void OnVertexVal(NodeId from, const Bytes& payload);
  void OnBlock(NodeId from, const Bytes& payload);
  CLANDAG_HOT void OnEcho(NodeId from, const Bytes& payload);
  CLANDAG_HOT void OnReady(NodeId from, const Bytes& payload);
  CLANDAG_HOT void OnCert(NodeId from, const Bytes& payload);
  // Post-authentication halves of OnEcho/OnCert: run inline when the
  // signature checked on this thread, or as the verify pool's in-order
  // completion callback when it checked off-thread.
  CLANDAG_HOT void ProcessEcho(NodeId from, const RbcVoteMsg& msg);
  CLANDAG_HOT void ProcessCert(NodeId from, const RbcCertMsg& msg);
  // cold: pull protocol, off the critical path by design (paper §5).
  CLANDAG_COLD void OnVertexPullReq(NodeId from, const Bytes& payload);
  CLANDAG_COLD void OnVertexPullResp(NodeId from, const Bytes& payload);
  CLANDAG_COLD void OnBlockPullReq(NodeId from, const Bytes& payload);
  CLANDAG_COLD void OnBlockPullResp(NodeId from, const Bytes& payload);

  CLANDAG_HOT void AcceptVertexBody(NodeId source, Round round, Instance& inst, Vertex v,
                                    const Digest& digest);
  CLANDAG_HOT void AcceptBlock(Instance& inst, BlockInfo block);

  struct InstanceKeyHash {
    size_t operator()(const std::pair<NodeId, Round>& key) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(key.first) << 40) ^ key.second);
    }
  };

  Runtime& runtime_;
  const Keychain& keychain_;
  const ClanTopology& topology_;
  DisseminationConfig config_;
  DisseminationCallbacks callbacks_;
  std::unordered_map<std::pair<NodeId, Round>, Instance, InstanceKeyHash> instances_;
  // Rounds below this were pruned after commit. ECHO, READY and cert
  // messages for them are dropped instead of resurrecting an Instance — essential with a verify
  // pool, where a message can come back from the workers after the commit
  // that made it irrelevant already pruned its round.
  Round prune_floor_ = 0;
  // Last own Propose() VAL (shared: rebroadcast re-enqueues the same
  // buffer); null until the first Propose().
  std::shared_ptr<const Bytes> last_val_bytes_;
};

}  // namespace clandag

#endif  // CLANDAG_CONSENSUS_DISSEMINATION_H_
