#include "ingress/load_gen.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace clandag {

OpenLoopLoadGen::OpenLoopLoadGen(LoadGenOptions options, TimeMicros start)
    : options_(options), rng_(options.seed), next_arrival_(start) {
  CLANDAG_CHECK(options_.num_clients > 0);
  next_seq_.assign(options_.num_clients, 0);
  if (options_.offered_load_tps > 0) {
    AdvanceArrival();
  }
}

uint32_t OpenLoopLoadGen::SampleClientRank() {
  // Inverse-power approximation of a zipf-like popularity curve: u^skew
  // concentrates mass near rank 0 while every rank in [0, num_clients)
  // stays reachable. skew == 0 degenerates to uniform.
  const double u = rng_.NextDouble();
  const double skewed = options_.zipf_skew > 0 ? std::pow(u, options_.zipf_skew) : u;
  uint32_t rank = static_cast<uint32_t>(skewed * options_.num_clients);
  return std::min(rank, options_.num_clients - 1);
}

void OpenLoopLoadGen::AdvanceArrival() {
  // Exponential interarrival: -ln(1-u) / rate, in microseconds.
  const double u = rng_.NextDouble();
  const double gap_sec = -std::log1p(-u) / options_.offered_load_tps;
  next_arrival_ += std::max<TimeMicros>(1, static_cast<TimeMicros>(gap_sec * 1e6));
}

void OpenLoopLoadGen::EmitFresh(TimeMicros now, std::vector<Bytes>& out) {
  const uint32_t rank = SampleClientRank();
  ClientRequestMsg request;
  request.client_id = options_.client_id_base + rank;
  request.client_seq = next_seq_[rank]++;
  request.payload.resize(options_.payload_bytes);
  // Cheap deterministic fill keyed by the request identity (content is
  // irrelevant to the pipeline; only size and uniqueness matter).
  const uint64_t stamp = PackRequestId(request.client_id, request.client_seq);
  for (size_t i = 0; i < request.payload.size(); ++i) {
    request.payload[i] = static_cast<uint8_t>((stamp >> ((i % 8) * 8)) ^ i);
  }
  Bytes frame = request.Encode();

  if (inflight_.size() < kMaxInflightTracked) {
    Inflight inflight;
    inflight.first_sent = now;
    inflight.frame = frame;
    inflight_.emplace(stamp, std::move(inflight));
  }
  ++stats_.fresh_sent;

  if (rng_.NextDouble() < options_.dup_probe_prob && !last_frame_.empty()) {
    // An impatient client re-transmits its previous frame verbatim.
    out.push_back(last_frame_);
    ++stats_.dup_probes_sent;
  }
  last_frame_ = frame;
  out.push_back(std::move(frame));
}

std::vector<Bytes> OpenLoopLoadGen::Poll(TimeMicros now) {
  std::vector<Bytes> out;
  if (options_.offered_load_tps > 0) {
    while (next_arrival_ <= now && out.size() < kMaxFramesPerPoll) {
      if (rng_.NextDouble() < options_.burst_prob) {
        for (uint32_t i = 0; i < kBurstFrames && out.size() < kMaxFramesPerPoll; ++i) {
          EmitFresh(now, out);
        }
      } else {
        EmitFresh(now, out);
      }
      AdvanceArrival();
    }
    if (next_arrival_ <= now) {
      // Backlog shed: after a long gap (crash, partition) we do not replay
      // the entire missed arrival process in one call.
      while (next_arrival_ <= now) {
        ++stats_.dropped_arrivals;
        AdvanceArrival();
      }
    }
  }
  while (!retries_.empty() && retries_.front().due <= now) {
    out.push_back(std::move(retries_.front().frame));
    retries_.pop_front();
    ++stats_.retries_sent;
  }
  return out;
}

void OpenLoopLoadGen::ScheduleRetry(uint64_t packed_id, TimeMicros due, TimeMicros now) {
  auto it = inflight_.find(packed_id);
  if (it == inflight_.end()) {
    return;  // Untracked (table was full at first send); nothing to re-send.
  }
  if (it->second.attempts >= options_.max_retries ||
      retries_.size() >= kMaxPendingRetries) {
    ++stats_.gave_up;
    inflight_.erase(it);
    return;
  }
  ++it->second.attempts;
  Retry retry;
  retry.due = std::max(due, now);
  retry.frame = it->second.frame;
  retry.packed_id = packed_id;
  retry.attempts = it->second.attempts;
  // bounded: at most one queued retry per tracked in-flight request (max_retries attempts each).
  retries_.push_back(std::move(retry));
}

void OpenLoopLoadGen::OnReply(const ClientReplyMsg& reply, TimeMicros now) {
  const uint64_t packed_id = PackRequestId(reply.client_id, reply.client_seq);
  switch (reply.status) {
    case ClientReplyStatus::kCommitted: {
      ++stats_.committed;
      auto it = inflight_.find(packed_id);
      if (it != inflight_.end()) {
        if (latencies_.size() < kMaxLatencySamples) {
          latencies_.push_back(now - it->second.first_sent);
        }
        inflight_.erase(it);
      }
      break;
    }
    case ClientReplyStatus::kDuplicate:
      // The request is already in the server's window: it was batched
      // (outcome may still arrive). Stop retrying.
      ++stats_.duplicate_replies;
      inflight_.erase(packed_id);
      break;
    case ClientReplyStatus::kRejectedRate:
      ++stats_.rate_rejected;
      ScheduleRetry(packed_id, now + std::max<TimeMicros>(reply.retry_after, 1), now);
      break;
    case ClientReplyStatus::kRejectedCapacity:
      ++stats_.capacity_rejected;
      ScheduleRetry(packed_id, now + std::max<TimeMicros>(reply.retry_after, 1), now);
      break;
    case ClientReplyStatus::kExpired:
      // Outcome unknown; retry with the same sequence number — the server's
      // dedup window screens re-execution if the original did land.
      ++stats_.expired;
      ScheduleRetry(packed_id, now + Millis(1), now);
      break;
    case ClientReplyStatus::kRejectedMalformed:
      break;  // A well-behaved generator never sends malformed frames.
  }
}

}  // namespace clandag
