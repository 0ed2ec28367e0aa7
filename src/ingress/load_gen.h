// OpenLoopLoadGen: a deterministic open-loop client population.
//
// Models 1e5-1e6 distinct clients against one node's ingress front end:
// arrivals are Poisson (open loop — the arrival process never slows down
// because the system is slow, which is what exposes saturation), client
// popularity is zipf-skewed via an inverse-power approximation, a small
// fraction of arrivals are bursts, and impatient clients occasionally
// re-send their previous frame verbatim (exercising dedup). Replies drive
// a bounded retry queue: rate/capacity rejections and expired batches are
// retried with the SAME sequence number after the server-suggested
// retry_after, which is the end-to-end path the dedup window protects.
//
// Everything is derived from (seed, now): two generators with the same
// options and the same Poll()/OnReply() timeline emit identical frames.
// No wall clock, no global state.
//
// Threading: confined to the driving thread (bench loop or sim callback).

#ifndef CLANDAG_INGRESS_LOAD_GEN_H_
#define CLANDAG_INGRESS_LOAD_GEN_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/client_wire.h"

namespace clandag {

// Caps on the generator's own memory; all named so lint_invariants.py can
// see every bounded queue in src/ingress/ (threading: driving thread only).
inline constexpr size_t kMaxPendingRetries = 1u << 14;
inline constexpr size_t kMaxInflightTracked = 1u << 16;
inline constexpr size_t kMaxLatencySamples = 1u << 20;
inline constexpr size_t kMaxFramesPerPoll = 4096;
// Frames in one burst arrival (see LoadGenOptions::burst_prob).
inline constexpr uint32_t kBurstFrames = 32;

struct LoadGenOptions {
  uint64_t seed = 1;
  uint32_t num_clients = 100000;  // Distinct client ids (1e5-1e6 in benches).
  uint32_t client_id_base = 0;    // Per-node disjoint id spaces: base + rank.
  double offered_load_tps = 1000.0;  // Mean arrival rate, frames/sec.
  uint32_t payload_bytes = 256;
  double zipf_skew = 3.0;    // 0 = uniform; larger concentrates on low ranks.
  double burst_prob = 0.01;  // P(an arrival is a burst of kBurstFrames frames).
  double dup_probe_prob = 0.002;  // P(impatient client re-sends last frame).
  uint32_t max_retries = 3;       // Give up on a request after this many.
};

struct LoadGenStats {
  uint64_t fresh_sent = 0;    // Distinct (client, seq) first sends.
  uint64_t retries_sent = 0;  // Re-sends triggered by reject/expire replies.
  uint64_t dup_probes_sent = 0;
  uint64_t dropped_arrivals = 0;  // Open-loop backlog shed by kMaxFramesPerPoll.
  uint64_t committed = 0;
  uint64_t duplicate_replies = 0;
  uint64_t rate_rejected = 0;
  uint64_t capacity_rejected = 0;
  uint64_t expired = 0;
  uint64_t gave_up = 0;  // Requests abandoned after max_retries.
};

class OpenLoopLoadGen {
 public:
  OpenLoopLoadGen(LoadGenOptions options, TimeMicros start);

  // Returns every frame whose (deterministic) send time is <= now, in send
  // order: fresh Poisson arrivals first, then due retries.
  std::vector<Bytes> Poll(TimeMicros now);

  // Feeds one reply back; may schedule a retry.
  void OnReply(const ClientReplyMsg& reply, TimeMicros now);

  const LoadGenStats& stats() const { return stats_; }
  // First-send-to-commit latencies (includes retry delays), bounded by
  // kMaxLatencySamples.
  const std::vector<TimeMicros>& LatencySamples() const { return latencies_; }
  size_t PendingRetries() const { return retries_.size(); }
  size_t InflightTracked() const { return inflight_.size(); }

 private:
  struct Retry {
    TimeMicros due = 0;
    Bytes frame;
    uint64_t packed_id = 0;
    uint32_t attempts = 0;
  };

  uint32_t SampleClientRank();
  void EmitFresh(TimeMicros now, std::vector<Bytes>& out);
  void ScheduleRetry(uint64_t packed_id, TimeMicros due, TimeMicros now);
  void AdvanceArrival();

  LoadGenOptions options_;
  DetRng rng_;
  TimeMicros next_arrival_;
  std::vector<uint32_t> next_seq_;  // Fixed size num_clients (the population, bounded by options).
  std::deque<Retry> retries_;             // Bounded by kMaxPendingRetries.
  struct Inflight {
    TimeMicros first_sent = 0;
    Bytes frame;
    uint32_t attempts = 0;
  };
  std::unordered_map<uint64_t, Inflight> inflight_;  // Bounded by kMaxInflightTracked.
  Bytes last_frame_;  // For dup probes.
  std::vector<TimeMicros> latencies_;  // Bounded by kMaxLatencySamples.
  LoadGenStats stats_;
};

}  // namespace clandag

#endif  // CLANDAG_INGRESS_LOAD_GEN_H_
