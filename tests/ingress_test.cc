// Ingress pipeline unit + integration tests: admission backpressure, batch
// edge policies, dedup window semantics, reply routing, bounded memory under
// overload, and end-to-end commit over a simulated cluster.

#include <gtest/gtest.h>

#include <set>

#include "core/cluster.h"
#include "ingress/front_end.h"
#include "ingress/load_gen.h"

namespace clandag {
namespace {

PendingTx MakeTx(uint32_t client, uint32_t seq, size_t bytes, TimeMicros now) {
  PendingTx tx;
  tx.tx.id = PackRequestId(client, seq);
  tx.tx.created_at = now;
  tx.tx.data.assign(bytes, 0xab);
  tx.charged_bytes = bytes;
  return tx;
}

// ---- Batcher edge policies ----

TEST(Batcher, EmptyBatchNeverClosesOnDeadline) {
  BatcherOptions options;
  options.max_batch_wait = Millis(10);
  Batcher batcher(options);
  batcher.CloseExpired(Seconds(100));
  EXPECT_EQ(batcher.ClosedCount(), 0u);
  EXPECT_FALSE(batcher.PopClosed(Seconds(200)).has_value());
}

TEST(Batcher, ClosesOnDeadlineAfterFirstAdd) {
  BatcherOptions options;
  options.max_batch_wait = Millis(10);
  Batcher batcher(options);
  ASSERT_TRUE(batcher.Add(MakeTx(1, 0, 100, Millis(1)), Millis(1)));
  EXPECT_FALSE(batcher.PopClosed(Millis(5)).has_value());  // Deadline not hit.
  auto batch = batcher.PopClosed(Millis(12));
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->txs.size(), 1u);
  EXPECT_EQ(batcher.stats().closed_by_deadline, 1u);
}

TEST(Batcher, ClosesOnSizeBeforeDeadline) {
  BatcherOptions options;
  options.max_batch_bytes = 250;
  options.max_batch_wait = Seconds(10);
  Batcher batcher(options);
  ASSERT_TRUE(batcher.Add(MakeTx(1, 0, 100, 1), 1));
  ASSERT_TRUE(batcher.Add(MakeTx(1, 1, 100, 2), 2));
  ASSERT_TRUE(batcher.Add(MakeTx(1, 2, 100, 3), 3));  // 300 >= 250: closes.
  EXPECT_EQ(batcher.ClosedCount(), 1u);
  EXPECT_EQ(batcher.stats().closed_by_size, 1u);
}

TEST(Batcher, OversizeTxFormsOwnImmediatelyClosedBatch) {
  BatcherOptions options;
  options.max_batch_bytes = 200;
  options.max_batch_wait = Seconds(10);
  Batcher batcher(options);
  ASSERT_TRUE(batcher.Add(MakeTx(1, 0, 50, 1), 1));
  // A single transaction over max_batch_bytes must still ship: the open
  // batch flushes first, then the oversize tx closes alone.
  ASSERT_TRUE(batcher.Add(MakeTx(2, 0, 500, 2), 2));
  EXPECT_EQ(batcher.ClosedCount(), 2u);
  EXPECT_EQ(batcher.stats().closed_oversize, 1u);
  auto first = batcher.PopClosed(3);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->txs.size(), 1u);
  EXPECT_EQ(first->payload_bytes, 50u);
  auto second = batcher.PopClosed(3);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload_bytes, 500u);
}

TEST(Batcher, RefusesWhenClosedQueueFullThenRecovartsAfterPop) {
  BatcherOptions options;
  options.max_batch_bytes = 100;
  options.max_closed_batches = 2;
  Batcher batcher(options);
  ASSERT_TRUE(batcher.Add(MakeTx(1, 0, 100, 1), 1));  // closes batch 1
  ASSERT_TRUE(batcher.Add(MakeTx(1, 1, 100, 2), 2));  // closes batch 2
  // Closed queue is at cap; an Add that would close must be refused.
  EXPECT_FALSE(batcher.Add(MakeTx(1, 2, 100, 3), 3));
  EXPECT_EQ(batcher.stats().refused_full, 1u);
  EXPECT_EQ(batcher.PendingBytes(), 200u);  // Refused tx was not taken.
  ASSERT_TRUE(batcher.PopClosed(4).has_value());
  // Retry after the consumer drained one batch succeeds.
  EXPECT_TRUE(batcher.Add(MakeTx(1, 2, 100, 5), 5));
}

// ---- Dedup window ----

TEST(Dedup, FreshOnceThenDuplicate) {
  DedupFilter dedup(DedupOptions{});
  EXPECT_EQ(dedup.Check(7, 0, 1), DedupVerdict::kFresh);
  dedup.Record(7, 0, 1);
  EXPECT_EQ(dedup.Check(7, 0, 2), DedupVerdict::kDuplicate);
  EXPECT_EQ(dedup.Check(7, 1, 2), DedupVerdict::kFresh);
}

TEST(Dedup, WindowRolloverMarksBelowWindowStale) {
  DedupFilter dedup(DedupOptions{});
  // Record even sequences up to 200; the window slides with max_seq.
  for (uint64_t seq = 0; seq <= 200; seq += 2) {
    dedup.Record(1, seq, 1);
  }
  // Within the 64-wide window: recorded evens are duplicates, skipped odds
  // are still fresh (exactly-once per sequence, not per range).
  EXPECT_EQ(dedup.Check(1, 200, 2), DedupVerdict::kDuplicate);
  EXPECT_EQ(dedup.Check(1, 199, 2), DedupVerdict::kFresh);
  EXPECT_EQ(dedup.Check(1, 138, 2), DedupVerdict::kDuplicate);
  // Below the window's reach the filter fails closed: it cannot prove the
  // sequence was not recorded, so it reports stale (treated as duplicate).
  EXPECT_EQ(dedup.Check(1, 136, 2), DedupVerdict::kStale);
  EXPECT_EQ(dedup.Check(1, 3, 2), DedupVerdict::kStale);
}

TEST(Dedup, TableFullOfActiveClientsFailsClosed) {
  DedupOptions options;
  options.max_tracked_clients = 2;
  options.idle_eviction = Seconds(1000);
  DedupFilter dedup(options);
  dedup.Record(1, 0, 1);
  dedup.Record(2, 0, 1);
  EXPECT_EQ(dedup.Check(3, 0, 2), DedupVerdict::kUntracked);
  EXPECT_EQ(dedup.TrackedClients(), 2u);
}

TEST(Dedup, IdleClientsEvictedUnderPressure) {
  DedupOptions options;
  options.max_tracked_clients = 2;
  options.idle_eviction = Millis(10);
  DedupFilter dedup(options);
  dedup.Record(1, 0, 0);
  dedup.Record(2, 0, 0);
  // Both entries idle long past the threshold: client 3 evicts and fits.
  EXPECT_EQ(dedup.Check(3, 0, Seconds(1)), DedupVerdict::kFresh);
  dedup.Record(3, 0, Seconds(1));
  EXPECT_LE(dedup.TrackedClients(), 2u);
  EXPECT_GE(dedup.stats().clients_evicted, 1u);
}

// ---- Admission ----

TEST(Admission, RateRejectThenRetryAfterRefillAdmits) {
  AdmissionOptions options;
  options.tokens_per_sec = 10.0;
  options.bucket_burst = 2.0;
  AdmissionController admission(options);
  EXPECT_EQ(admission.Admit(1, 10, 0).verdict, AdmitVerdict::kAdmit);
  EXPECT_EQ(admission.Admit(1, 10, 0).verdict, AdmitVerdict::kAdmit);
  const AdmitDecision rejected = admission.Admit(1, 10, 0);
  EXPECT_EQ(rejected.verdict, AdmitVerdict::kRejectRate);
  EXPECT_GT(rejected.retry_after, 0);
  // Honoring the hint succeeds: one token refills in 100ms at 10/s.
  EXPECT_EQ(admission.Admit(1, 10, rejected.retry_after).verdict, AdmitVerdict::kAdmit);
}

TEST(Admission, ByteBudgetRejectsUntilReleased) {
  AdmissionOptions options;
  options.global_byte_budget = 100;
  options.bucket_burst = 100.0;
  AdmissionController admission(options);
  EXPECT_EQ(admission.Admit(1, 60, 0).verdict, AdmitVerdict::kAdmit);
  EXPECT_EQ(admission.Admit(2, 60, 0).verdict, AdmitVerdict::kRejectCapacity);
  admission.Release(60);
  EXPECT_EQ(admission.Admit(2, 60, 0).verdict, AdmitVerdict::kAdmit);
  EXPECT_EQ(admission.InFlightBytes(), 60u);
}

TEST(Admission, FullClientTableRejectsNewClientsUntilOneIdles) {
  AdmissionOptions options;
  options.max_tracked_clients = 2;
  options.idle_eviction = Seconds(1);
  AdmissionController admission(options);
  EXPECT_EQ(admission.Admit(1, 10, 0).verdict, AdmitVerdict::kAdmit);
  EXPECT_EQ(admission.Admit(2, 10, 0).verdict, AdmitVerdict::kAdmit);
  admission.Release(20);

  // Both tracked clients are recent: the table fails closed with the
  // capacity retry hint instead of growing.
  const AdmitDecision full = admission.Admit(3, 10, Millis(10));
  EXPECT_EQ(full.verdict, AdmitVerdict::kRejectCapacity);
  EXPECT_EQ(full.retry_after, Millis(50));
  EXPECT_EQ(admission.TrackedClients(), 2u);

  // Once they have idled past idle_eviction, their buckets make room.
  EXPECT_EQ(admission.Admit(3, 10, Seconds(2)).verdict, AdmitVerdict::kAdmit);
  EXPECT_EQ(admission.stats().buckets_evicted, 2u);
  EXPECT_EQ(admission.TrackedClients(), 1u);
}

// ---- ClientReplyCollector bounded-memory regression ----

// Before the cap, the collector retained every (round, proposer) key it
// ever saw; 10k requests through a long-lived node leaked 10k entries.
TEST(ClientReplyCollector, TenThousandRequestsStayUnderCap) {
  ClientReplyCollector collector(/*clan_quorum=*/2);
  for (Round round = 1; round <= 10000; ++round) {
    ExecutionReceipt receipt;
    receipt.round = round;
    receipt.proposer = 0;
    receipt.state_digest = Digest::Of(ToBytes("s"));
    collector.AddReply(1, receipt);
    const bool confirmed = collector.AddReply(2, receipt).has_value();
    EXPECT_TRUE(confirmed) << "round " << round;
    EXPECT_LE(collector.TrackedCount(), kMaxTrackedRequests);
  }
  EXPECT_EQ(collector.ConfirmedCount(), 10000u);
  // Confirmed entries were displaced without ever touching a pending one.
  EXPECT_EQ(collector.EvictedPending(), 0u);
}

TEST(ClientReplyCollector, PruneBelowDropsStaleRequests) {
  ClientReplyCollector collector(/*clan_quorum=*/2);
  for (Round round = 1; round <= 10; ++round) {
    ExecutionReceipt receipt;
    receipt.round = round;
    receipt.proposer = 3;
    collector.AddReply(1, receipt);
  }
  EXPECT_EQ(collector.TrackedCount(), 10u);
  collector.PruneBelow(8);
  EXPECT_EQ(collector.TrackedCount(), 3u);
}

// ---- IngressFrontEnd pipeline ----

struct ReplyLog {
  std::vector<ClientReplyMsg> replies;
  IngressFrontEnd::ReplyFn Fn() {
    return [this](uint64_t, const ClientReplyMsg& reply) { replies.push_back(reply); };
  }
  size_t CountOf(ClientReplyStatus status) const {
    size_t n = 0;
    for (const auto& r : replies) {
      n += r.status == status ? 1 : 0;
    }
    return n;
  }
};

Bytes Frame(uint32_t client, uint32_t seq, size_t payload = 64) {
  ClientRequestMsg msg;
  msg.client_id = client;
  msg.client_seq = seq;
  msg.payload.assign(payload, 0x5a);
  return msg.Encode();
}

IngressOptions SmallIngress() {
  IngressOptions options;
  options.admission.bucket_burst = 1e9;  // Rate limiting off unless a test wants it.
  options.admission.tokens_per_sec = 1e9;
  options.batcher.max_batch_bytes = 4096;
  options.batcher.max_batch_wait = Millis(5);
  return options;
}

TEST(IngressFrontEnd, CommitsThroughQuorumReceipts) {
  ReplyLog log;
  IngressFrontEnd fe(/*self=*/0, /*clan_quorum=*/2, SmallIngress(), log.Fn());
  fe.SubmitRaw(Frame(10, 0), Millis(1));
  fe.SubmitRaw(Frame(11, 0), Millis(1));
  auto block = fe.NextBlock(5, Millis(10));  // Deadline passed: batch ships.
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->tx_count, 2u);
  EXPECT_EQ(block->proposer, 0u);

  ExecutionReceipt receipt;
  receipt.round = 5;
  receipt.proposer = 0;
  receipt.txs_executed = 2;
  receipt.state_digest = Digest::Of(ToBytes("state"));
  fe.OnExecutorReceipt(0, receipt, Millis(12));
  EXPECT_EQ(log.CountOf(ClientReplyStatus::kCommitted), 0u);  // 1 of 2 votes.
  fe.OnExecutorReceipt(1, receipt, Millis(13));
  EXPECT_EQ(log.CountOf(ClientReplyStatus::kCommitted), 2u);
  for (const auto& reply : log.replies) {
    EXPECT_EQ(reply.state_digest, receipt.state_digest);
    EXPECT_EQ(reply.round, 5u);
  }
  // Admission bytes for the confirmed batch were released.
  EXPECT_EQ(fe.PendingBytes(), 0u);
}

TEST(IngressFrontEnd, MalformedFrameCountedNotCrashed) {
  ReplyLog log;
  IngressFrontEnd fe(0, 1, SmallIngress(), log.Fn());
  fe.SubmitRaw(ToBytes("not a frame"), 1);
  EXPECT_EQ(fe.stats().malformed, 1u);
  EXPECT_EQ(fe.stats().admitted, 0u);
}

TEST(IngressFrontEnd, DuplicateSubmissionAnsweredWithoutBatching) {
  ReplyLog log;
  IngressFrontEnd fe(0, 1, SmallIngress(), log.Fn());
  fe.SubmitRaw(Frame(3, 7), 1);
  fe.SubmitRaw(Frame(3, 7), 2);  // Same (client, seq): screened by dedup.
  EXPECT_EQ(fe.stats().admitted, 1u);
  EXPECT_EQ(fe.stats().duplicates, 1u);
  EXPECT_EQ(log.CountOf(ClientReplyStatus::kDuplicate), 1u);
}

TEST(IngressFrontEnd, BackpressureRejectsThenRetrySucceeds) {
  IngressOptions options = SmallIngress();
  options.admission.global_byte_budget = 200;
  ReplyLog log;
  IngressFrontEnd fe(0, 1, options, log.Fn());
  fe.SubmitRaw(Frame(1, 0, 120), Millis(1));
  fe.SubmitRaw(Frame(2, 0, 120), Millis(1));  // Budget full: rejected.
  EXPECT_EQ(log.CountOf(ClientReplyStatus::kRejectedCapacity), 1u);
  const ClientReplyMsg& rejection = log.replies.back();
  EXPECT_GT(rejection.retry_after, 0);

  // Drain: propose and confirm the first batch, releasing its bytes.
  auto block = fe.NextBlock(1, Millis(10));
  ASSERT_TRUE(block.has_value());
  ExecutionReceipt receipt;
  receipt.round = 1;
  receipt.proposer = 0;
  fe.OnExecutorReceipt(0, receipt, Millis(11));

  // The rejected client retries the SAME sequence and now gets through.
  fe.SubmitRaw(Frame(2, 0, 120), Millis(12));
  EXPECT_EQ(fe.stats().admitted, 2u);
  EXPECT_EQ(fe.stats().duplicates, 0u);  // Rejection never touched the window.
}

TEST(IngressFrontEnd, ExpiredBatchRepliesAndRetryIsScreened) {
  IngressOptions options = SmallIngress();
  options.batch_expiry = Millis(100);
  ReplyLog log;
  IngressFrontEnd fe(0, 2, options, log.Fn());
  fe.SubmitRaw(Frame(9, 4), Millis(1));
  ASSERT_TRUE(fe.NextBlock(1, Millis(10)).has_value());
  // No receipts arrive (e.g. the node is partitioned from its clan); the
  // batch expires and the client is told the outcome is unknown.
  fe.SubmitRaw(Frame(50, 0), Millis(200));  // Any activity runs the expiry sweep.
  EXPECT_EQ(log.CountOf(ClientReplyStatus::kExpired), 1u);
  EXPECT_EQ(fe.PendingBytes(), Frame(50, 0).size());  // Expired bytes released.

  // The client retries (client 9, seq 4): the dedup window still remembers
  // the sequence, so the retry cannot be batched or executed twice.
  fe.SubmitRaw(Frame(9, 4), Millis(201));
  EXPECT_EQ(log.CountOf(ClientReplyStatus::kDuplicate), 1u);
}

// The headline bound: at 2x the drain rate, ingress memory stays capped by
// the byte budget + bounded tables, and goodput degrades gracefully
// (rejections, not growth).
TEST(IngressFrontEnd, MemoryBoundedAtTwiceSaturation) {
  IngressOptions options = SmallIngress();
  options.admission.global_byte_budget = 64 << 10;
  options.batcher.max_batch_bytes = 4 << 10;
  ReplyLog log;
  IngressFrontEnd fe(0, 1, options, log.Fn());

  uint64_t submitted_bytes = 0;
  Round round = 1;
  TimeMicros now = 0;
  uint32_t seq = 0;
  for (int step = 0; step < 2000; ++step) {
    now += Millis(1);
    // Offered load: 8 KiB/ms across 8 clients.
    for (int i = 0; i < 8; ++i) {
      const Bytes frame = Frame(i, seq, 1024);
      submitted_bytes += frame.size();
      fe.SubmitRaw(frame, now);
    }
    ++seq;
    // Drain capacity: one 4 KiB block per ms — half the offered load.
    if (auto block = fe.NextBlock(round, now); block.has_value()) {
      ExecutionReceipt receipt;
      receipt.round = round;
      receipt.proposer = 0;
      fe.OnExecutorReceipt(0, receipt, now);
      ++round;
    }
    ASSERT_LE(fe.PendingBytes(), options.admission.global_byte_budget)
        << "ingress exceeded its byte budget at step " << step;
  }
  // ~16 MiB were offered; the budget held throughout and the excess was
  // explicitly rejected, not buffered.
  EXPECT_GT(submitted_bytes, uint64_t{15} << 20);
  EXPECT_GT(fe.stats().rejected_capacity, 0u);
  EXPECT_GT(fe.stats().txs_committed, 0u);
  EXPECT_LE(fe.admission().TrackedClients(), options.admission.max_tracked_clients);
  EXPECT_LE(fe.dedup().TrackedClients(), options.dedup.max_tracked_clients);
  EXPECT_LE(fe.batcher().ClosedCount(), options.batcher.max_closed_batches);
  EXPECT_LE(fe.router().PendingBatches(), kMaxPendingBatches);
}

// ---- OpenLoopLoadGen ----

TEST(LoadGen, SameSeedSameTimelineIsBitIdentical) {
  LoadGenOptions options;
  options.seed = 42;
  options.num_clients = 1000;
  options.offered_load_tps = 5000;
  OpenLoopLoadGen a(options, 0);
  OpenLoopLoadGen b(options, 0);
  for (TimeMicros now = Millis(1); now <= Millis(50); now += Millis(1)) {
    EXPECT_EQ(a.Poll(now), b.Poll(now));
  }
  EXPECT_EQ(a.stats().fresh_sent, b.stats().fresh_sent);
  EXPECT_GT(a.stats().fresh_sent, 100u);
}

TEST(LoadGen, ZipfSkewConcentratesOnLowRanks) {
  LoadGenOptions options;
  options.seed = 7;
  options.num_clients = 10000;
  options.offered_load_tps = 100000;
  options.zipf_skew = 3.0;
  options.dup_probe_prob = 0;
  options.burst_prob = 0;
  OpenLoopLoadGen gen(options, 0);
  size_t low_rank = 0;
  size_t total = 0;
  for (TimeMicros now = Millis(1); now <= Millis(100); now += Millis(1)) {
    for (const Bytes& frame : gen.Poll(now)) {
      auto msg = ClientRequestMsg::Decode(frame);
      ASSERT_TRUE(msg.has_value());
      ++total;
      low_rank += msg->client_id < options.num_clients / 10 ? 1 : 0;
    }
  }
  ASSERT_GT(total, 1000u);
  // With skew 3, u^3 < 0.1 for ~46% of draws; uniform would give 10%.
  EXPECT_GT(static_cast<double>(low_rank) / total, 0.3);
}

TEST(LoadGen, RetriesExpiredRequestWithSameSequence) {
  LoadGenOptions options;
  options.seed = 3;
  options.offered_load_tps = 1000;
  OpenLoopLoadGen gen(options, 0);
  std::vector<Bytes> frames = gen.Poll(Millis(10));
  ASSERT_FALSE(frames.empty());
  auto original = ClientRequestMsg::Decode(frames[0]);
  ASSERT_TRUE(original.has_value());

  ClientReplyMsg expired;
  expired.client_id = original->client_id;
  expired.client_seq = original->client_seq;
  expired.status = ClientReplyStatus::kExpired;
  gen.OnReply(expired, Millis(20));
  EXPECT_EQ(gen.PendingRetries(), 1u);

  bool resent = false;
  for (const Bytes& frame : gen.Poll(Millis(40))) {
    auto msg = ClientRequestMsg::Decode(frame);
    ASSERT_TRUE(msg.has_value());
    resent |= msg->client_id == original->client_id &&
              msg->client_seq == original->client_seq;
  }
  EXPECT_TRUE(resent);
  EXPECT_EQ(gen.stats().retries_sent, 1u);
}

TEST(LoadGen, GivesUpAfterMaxRetries) {
  LoadGenOptions options;
  options.seed = 5;
  options.offered_load_tps = 100;
  options.max_retries = 2;
  OpenLoopLoadGen gen(options, 0);
  std::vector<Bytes> frames = gen.Poll(Millis(50));
  ASSERT_FALSE(frames.empty());
  auto msg = ClientRequestMsg::Decode(frames[0]);
  ASSERT_TRUE(msg.has_value());
  ClientReplyMsg reject;
  reject.client_id = msg->client_id;
  reject.client_seq = msg->client_seq;
  reject.status = ClientReplyStatus::kRejectedCapacity;
  reject.retry_after = Millis(1);
  gen.OnReply(reject, Millis(50));
  gen.OnReply(reject, Millis(60));
  EXPECT_EQ(gen.PendingRetries(), 2u);
  gen.OnReply(reject, Millis(70));  // Third strike: abandoned.
  EXPECT_EQ(gen.stats().gave_up, 1u);
}

// ---- End to end over the simulated cluster ----

class IngressSimTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 4;

  IngressSimTest() : cluster_(ClusterOptions()) {}

  // Receipts gossip through the cluster: with the full topology every node
  // executes every block, so every peer's receipt feeds every front end.
  Cluster::Options ClusterOptions() {
    Cluster::Options options;
    options.num_nodes = kNodes;
    options.sim_latency = Millis(5);
    options.setup = [this](NodeId id, Cluster::NodeSetup& setup) {
      setup.options.consensus.round_timeout = Millis(500);
      setup.options.enable_ingress = true;
      setup.options.ingress.batcher.max_batch_wait = Millis(20);
      setup.callbacks.on_client_reply = [this, id](uint64_t, const ClientReplyMsg& reply) {
        replies_[id].push_back(reply);
      };
    };
    return options;
  }

  std::vector<ClientReplyMsg> replies_[kNodes];
  Cluster cluster_;
};

TEST_F(IngressSimTest, ClientRequestsCommitWithQuorumReceipts) {
  cluster_.Start();
  // Ten clients submit one request each to node 0.
  cluster_.scheduler().ScheduleCallbackAt(Millis(1), [this] {
    for (uint32_t c = 0; c < 10; ++c) {
      ClientRequestMsg msg;
      msg.client_id = c;
      msg.client_seq = 0;
      msg.payload = EncodeTransfer(1, 2, 1);
      cluster_.app(0).SubmitClientRequest(msg.Encode());
    }
  });
  cluster_.scheduler().RunUntil(Seconds(3));

  size_t committed = 0;
  std::set<uint64_t> seen;
  for (const auto& reply : replies_[0]) {
    if (reply.status == ClientReplyStatus::kCommitted) {
      ++committed;
      // Exactly one commit per (client, seq).
      EXPECT_TRUE(seen.insert(PackRequestId(reply.client_id, reply.client_seq)).second);
    }
  }
  EXPECT_EQ(committed, 10u);
  // All nodes executed the same transactions exactly once.
  for (NodeId id = 0; id < kNodes; ++id) {
    EXPECT_EQ(cluster_.app(id).execution().ExecutedTxs(), 10u) << "node " << id;
  }
}

}  // namespace
}  // namespace clandag
