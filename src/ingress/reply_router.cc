#include "ingress/reply_router.h"

#include "common/check.h"

namespace clandag {

ReplyRouter::ReplyRouter(NodeId self, ReplyRouterOptions options, ReplyFn reply_fn,
                         ReleaseFn release_fn)
    : self_(self),
      options_(options),
      reply_fn_(std::move(reply_fn)),
      release_fn_(std::move(release_fn)),
      // The collector only ever tracks this node's own in-flight blocks, so
      // its cap mirrors the pending-batch cap (plus slack for receipts that
      // arrive before the local propose notification).
      collector_(options.clan_quorum, kMaxPendingBatches * 2) {}

void ReplyRouter::OnBatchProposed(Round round, std::vector<uint64_t> request_ids,
                                  size_t charged_bytes, TimeMicros now) {
  ExpireStale(now);
  while (pending_.size() >= kMaxPendingBatches) {
    // Cap hit: the oldest batch's outcome is declared unknown right now.
    Resolve(pending_.begin()->first, ClientReplyStatus::kExpired, nullptr);
  }
  PendingBatch batch;
  batch.round = round;
  batch.request_ids = std::move(request_ids);
  batch.charged_bytes = charged_bytes;
  batch.proposed_at = now;
  pending_[round] = std::move(batch);

  // Receipts can outrun the propose notification only in exotic replay
  // paths; if the block is already confirmed, complete immediately.
  if (collector_.IsConfirmed(round, self_)) {
    Resolve(round, ClientReplyStatus::kCommitted, nullptr);
  }
}

void ReplyRouter::OnReceipt(NodeId executor, const ExecutionReceipt& receipt, TimeMicros now) {
  if (receipt.proposer != self_) {
    return;  // Another front end's block; its router answers those clients.
  }
  ExpireStale(now);
  std::optional<ExecutionReceipt> confirmed = collector_.AddReply(executor, receipt);
  if (confirmed.has_value() && pending_.find(receipt.round) != pending_.end()) {
    Resolve(receipt.round, ClientReplyStatus::kCommitted, &*confirmed);
  }
}

void ReplyRouter::ExpireStale(TimeMicros now) {
  while (!pending_.empty()) {
    const Round oldest = pending_.begin()->first;
    if (now - pending_.begin()->second.proposed_at < options_.batch_expiry) {
      break;
    }
    Resolve(oldest, ClientReplyStatus::kExpired, nullptr);
  }
  // Requests below the oldest still-pending round can never be resolved
  // against a live batch; drop their collector state too.
  if (!pending_.empty()) {
    collector_.PruneBelow(pending_.begin()->first);
  }
}

void ReplyRouter::Resolve(Round round, ClientReplyStatus status,
                          const ExecutionReceipt* receipt) {
  auto it = pending_.find(round);
  CLANDAG_CHECK(it != pending_.end());
  PendingBatch batch = std::move(it->second);
  pending_.erase(it);

  if (status == ClientReplyStatus::kCommitted) {
    ++stats_.batches_confirmed;
  } else {
    ++stats_.batches_expired;
  }
  for (uint64_t id : batch.request_ids) {
    ClientReplyMsg reply;
    reply.client_id = RequestClientOf(id);
    reply.client_seq = RequestSeqOf(id);
    reply.status = status;
    reply.round = round;
    reply.proposer = self_;
    if (receipt != nullptr) {
      reply.state_digest = receipt->state_digest;
    }
    if (status == ClientReplyStatus::kCommitted) {
      ++stats_.replies_committed;
    } else {
      ++stats_.replies_expired;
    }
    if (reply_fn_) {
      reply_fn_(reply.client_id, reply);
    }
  }
  if (release_fn_) {
    release_fn_(batch.charged_bytes);
  }
}

}  // namespace clandag
