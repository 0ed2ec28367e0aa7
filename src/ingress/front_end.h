// IngressFrontEnd: the client-serving front end of one node (DESIGN.md §11).
//
// Pipeline per raw request frame (SubmitRaw):
//   decode -> dedup Check -> admission (token bucket + byte budget) ->
//   batcher Add -> dedup Record
// with an immediate reply frame on every rejection path (malformed,
// duplicate, rate, capacity) so clients always learn whether to retry.
// Nothing in the pipeline queues without a cap: the admission byte budget,
// the batcher's closed-batch queue and the reply router's pending-batch
// table are all bounded, so ingress memory stays bounded at any offered
// load (asserted under 2x saturation in tests/ingress_test.cc).
//
// The front end is the node's BlockSource: NextBlock() pops a closed batch
// and turns it into a block payload (EncodeTxBatch), registering the batch
// with the reply router. Execution receipts — this node's own and its clan
// peers', fed in via OnExecutorReceipt — complete client requests through
// the f_c+1 reply quorum.
//
// Threading: confined to the owning node's event-loop thread (same contract
// as Mempool). Reply callbacks fire synchronously from SubmitRaw /
// NextBlock / OnExecutorReceipt and must not reenter the front end.

#ifndef CLANDAG_INGRESS_FRONT_END_H_
#define CLANDAG_INGRESS_FRONT_END_H_

#include <functional>
#include <memory>

#include "common/hot_path.h"
#include "consensus/sailfish.h"
#include "ingress/admission.h"
#include "ingress/batcher.h"
#include "ingress/dedup.h"
#include "ingress/reply_router.h"
#include "net/client_wire.h"

namespace clandag {

struct IngressOptions {
  AdmissionOptions admission;
  DedupOptions dedup;
  BatcherOptions batcher;
  TimeMicros batch_expiry = Seconds(10);
};

struct IngressStats {
  uint64_t received = 0;
  uint64_t malformed = 0;
  uint64_t duplicates = 0;   // Dedup window hits (duplicate + stale + untracked).
  uint64_t rejected_rate = 0;
  uint64_t rejected_capacity = 0;
  uint64_t admitted = 0;
  uint64_t batches_proposed = 0;
  uint64_t txs_proposed = 0;
  uint64_t txs_committed = 0;
  uint64_t txs_expired = 0;
};

class IngressFrontEnd final : public BlockSource {
 public:
  using ReplyFn = std::function<void(uint64_t client, const ClientReplyMsg& reply)>;

  IngressFrontEnd(NodeId self, uint32_t clan_quorum, IngressOptions options, ReplyFn reply_fn);

  // Feeds one raw client request frame through the pipeline.
  CLANDAG_HOT void SubmitRaw(const Bytes& frame, TimeMicros now);

  // BlockSource: the consensus layer pulls the next closed batch here.
  CLANDAG_HOT std::optional<BlockInfo> NextBlock(Round round, TimeMicros now) override;

  // One clan member's execution receipt for some block.
  CLANDAG_HOT void OnExecutorReceipt(NodeId executor, const ExecutionReceipt& receipt,
                                     TimeMicros now);

  // Total bytes the front end holds on behalf of unresolved requests
  // (admission in-flight: open batch + closed batches + proposed blocks).
  uint64_t PendingBytes() const { return admission_.InFlightBytes(); }

  const IngressStats& stats() const { return stats_; }
  const AdmissionController& admission() const { return admission_; }
  const DedupFilter& dedup() const { return dedup_; }
  const Batcher& batcher() const { return batcher_; }
  const ReplyRouter& router() const { return *router_; }

 private:
  void Reply(uint64_t client, uint32_t seq, ClientReplyStatus status, TimeMicros retry_after);

  NodeId self_;
  IngressOptions options_;
  ReplyFn reply_fn_;
  AdmissionController admission_;
  DedupFilter dedup_;
  Batcher batcher_;
  std::unique_ptr<ReplyRouter> router_;
  IngressStats stats_;
};

}  // namespace clandag

#endif  // CLANDAG_INGRESS_FRONT_END_H_
