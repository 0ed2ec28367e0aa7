#include "ingress/front_end.h"

#include "smr/mempool.h"

namespace clandag {

IngressFrontEnd::IngressFrontEnd(NodeId self, uint32_t clan_quorum, IngressOptions options,
                                 ReplyFn reply_fn)
    : self_(self),
      options_(options),
      reply_fn_(std::move(reply_fn)),
      admission_(options.admission),
      dedup_(options.dedup),
      batcher_(options.batcher) {
  ReplyRouterOptions router_options;
  router_options.clan_quorum = clan_quorum;
  router_options.batch_expiry = options.batch_expiry;
  router_ = std::make_unique<ReplyRouter>(
      self, router_options,
      [this](uint64_t client, const ClientReplyMsg& reply) {
        if (reply.status == ClientReplyStatus::kCommitted) {
          ++stats_.txs_committed;
        } else {
          ++stats_.txs_expired;
        }
        if (reply_fn_) {
          reply_fn_(client, reply);
        }
      },
      [this](size_t bytes) { admission_.Release(bytes); });
}

void IngressFrontEnd::Reply(uint64_t client, uint32_t seq, ClientReplyStatus status,
                            TimeMicros retry_after) {
  if (!reply_fn_) {
    return;
  }
  ClientReplyMsg reply;
  reply.client_id = static_cast<uint32_t>(client);
  reply.client_seq = seq;
  reply.status = status;
  reply.proposer = self_;
  reply.retry_after = retry_after;
  reply_fn_(client, reply);
}

void IngressFrontEnd::SubmitRaw(const Bytes& frame, TimeMicros now) {
  ++stats_.received;
  router_->ExpireStale(now);

  std::optional<ClientRequestMsg> request = ClientRequestMsg::Decode(frame);
  if (!request.has_value()) {
    ++stats_.malformed;
    // No trustworthy (client, seq) to address; the transport layer may
    // still close the connection, but there is nothing to reply to.
    return;
  }
  const uint64_t client = request->client_id;

  // Dedup screens before admission so retries of already-batched requests
  // are answered without consuming the client's token budget.
  switch (dedup_.Check(client, request->client_seq, now)) {
    case DedupVerdict::kFresh:
      break;
    case DedupVerdict::kDuplicate:
      ++stats_.duplicates;
      Reply(client, request->client_seq, ClientReplyStatus::kDuplicate, 0);
      return;
    case DedupVerdict::kStale:
    case DedupVerdict::kUntracked:
      // Too old to classify; treat as duplicate (the safe direction — a
      // client this far behind its own window has long since moved on).
      ++stats_.duplicates;
      Reply(client, request->client_seq, ClientReplyStatus::kDuplicate, 0);
      return;
  }

  const size_t charged = frame.size();
  const AdmitDecision decision = admission_.Admit(client, charged, now);
  if (decision.verdict == AdmitVerdict::kRejectRate) {
    ++stats_.rejected_rate;
    Reply(client, request->client_seq, ClientReplyStatus::kRejectedRate, decision.retry_after);
    return;
  }
  if (decision.verdict == AdmitVerdict::kRejectCapacity) {
    ++stats_.rejected_capacity;
    Reply(client, request->client_seq, ClientReplyStatus::kRejectedCapacity,
          decision.retry_after);
    return;
  }

  PendingTx pending;
  pending.tx.id = PackRequestId(request->client_id, request->client_seq);
  pending.tx.created_at = now;
  pending.tx.data = std::move(request->payload);
  pending.charged_bytes = charged;
  if (!batcher_.Add(std::move(pending), now)) {
    // Closed-batch queue full: consensus is not draining fast enough.
    // Refuse rather than queue; the charge is returned immediately.
    admission_.Release(charged);
    ++stats_.rejected_capacity;
    Reply(client, request->client_seq, ClientReplyStatus::kRejectedCapacity,
          options_.batcher.max_batch_wait);
    return;
  }
  dedup_.Record(client, request->client_seq, now);
  ++stats_.admitted;
}

std::optional<BlockInfo> IngressFrontEnd::NextBlock(Round round, TimeMicros now) {
  router_->ExpireStale(now);
  std::optional<IngressBatch> batch = batcher_.PopClosed(now);
  if (!batch.has_value()) {
    return std::nullopt;
  }

  BlockInfo block;
  block.proposer = self_;
  block.round = round;
  block.tx_count = static_cast<uint32_t>(batch->txs.size());
  block.tx_size =
      batch->txs.empty() ? 0 : static_cast<uint32_t>(batch->payload_bytes / batch->txs.size());

  std::vector<Transaction> txs;
  txs.reserve(batch->txs.size());
  std::vector<uint64_t> request_ids;
  request_ids.reserve(batch->txs.size());
  TimeMicros created_sum = 0;
  for (PendingTx& pending : batch->txs) {
    created_sum += pending.tx.created_at;
    request_ids.push_back(pending.tx.id);
    txs.push_back(std::move(pending.tx));
  }
  block.created_at = txs.empty() ? now : created_sum / txs.size();
  block.payload = EncodeTxBatch(txs);

  router_->OnBatchProposed(round, std::move(request_ids), batch->charged_bytes, now);
  ++stats_.batches_proposed;
  stats_.txs_proposed += txs.size();
  return block;
}

void IngressFrontEnd::OnExecutorReceipt(NodeId executor, const ExecutionReceipt& receipt,
                                        TimeMicros now) {
  router_->OnReceipt(executor, receipt, now);
}

}  // namespace clandag
