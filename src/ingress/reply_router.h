// ReplyRouter: the response half of the ingress pipeline.
//
// When the front end proposes a batch at (round, proposer=self), the router
// remembers which (client, seq) requests rode in it. Execution receipts from
// clan members stream in via OnReceipt; the existing f_c+1
// ClientReplyCollector quorum logic decides when a block's execution is
// confirmed, at which point the router completes every client request in
// that batch with a kCommitted reply carrying the agreed state digest.
//
// Pending batches are bounded two ways (backpressure, not queuing):
//  - kMaxPendingBatches: proposing past the cap expires the oldest batch
//    immediately;
//  - batch_expiry: a batch unconfirmed for too long (node partitioned away,
//    serving clan unreachable) completes with kExpired — outcome unknown —
//    so its clients can retry; the retry is then screened by the dedup
//    window, which is what makes retry-after-expiry safe end to end.
// Either way the batch's admission bytes are released through `release_fn`.
//
// Threading: confined to the owning node's event-loop thread.

#ifndef CLANDAG_INGRESS_REPLY_ROUTER_H_
#define CLANDAG_INGRESS_REPLY_ROUTER_H_

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "net/client_wire.h"
#include "smr/client.h"

namespace clandag {

// Cap on proposed-but-unconfirmed batches the router tracks.
inline constexpr size_t kMaxPendingBatches = 64;

struct ReplyRouterOptions {
  uint32_t clan_quorum = 1;  // f_c + 1 for this node's serving clan.
  TimeMicros batch_expiry = Seconds(10);
};

struct ReplyRouterStats {
  uint64_t batches_confirmed = 0;
  uint64_t batches_expired = 0;
  uint64_t replies_committed = 0;
  uint64_t replies_expired = 0;
};

class ReplyRouter {
 public:
  // `reply_fn(client, reply)` delivers a reply frame toward the client;
  // `release_fn(bytes)` returns a resolved batch's bytes to admission.
  using ReplyFn = std::function<void(uint64_t client, const ClientReplyMsg& reply)>;
  using ReleaseFn = std::function<void(size_t bytes)>;

  ReplyRouter(NodeId self, ReplyRouterOptions options, ReplyFn reply_fn, ReleaseFn release_fn);

  // Registers a proposed batch: the (client, seq) pairs included in this
  // node's block at `round`, with the admission bytes charged to them.
  void OnBatchProposed(Round round, std::vector<uint64_t> request_ids, size_t charged_bytes,
                       TimeMicros now);

  // Streams one executor's receipt in. Receipts for other proposers'
  // blocks are ignored (each front end answers only its own clients).
  void OnReceipt(NodeId executor, const ExecutionReceipt& receipt, TimeMicros now);

  // Expires batches older than batch_expiry (called lazily by the front
  // end on every submit/propose/receipt).
  void ExpireStale(TimeMicros now);

  size_t PendingBatches() const { return pending_.size(); }
  const ReplyRouterStats& stats() const { return stats_; }

 private:
  struct PendingBatch {
    Round round = 0;
    std::vector<uint64_t> request_ids;
    size_t charged_bytes = 0;
    TimeMicros proposed_at = 0;
  };

  // Completes and erases the pending batch for `round`.
  void Resolve(Round round, ClientReplyStatus status, const ExecutionReceipt* receipt);

  NodeId self_;
  ReplyRouterOptions options_;
  ReplyFn reply_fn_;
  ReleaseFn release_fn_;
  ClientReplyCollector collector_;
  std::map<Round, PendingBatch> pending_;  // Keyed by round; bounded by kMaxPendingBatches.
  ReplyRouterStats stats_;
};

}  // namespace clandag

#endif  // CLANDAG_INGRESS_REPLY_ROUTER_H_
