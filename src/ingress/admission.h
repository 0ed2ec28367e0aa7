// AdmissionController: the ingress pipeline's first gate (DESIGN.md §11).
//
// Two independent limits, both with explicit backpressure (a rejected
// request carries a retry_after hint; nothing is queued unboundedly):
//  - a per-client token bucket (one token per request, refilled at
//    tokens_per_sec) that keeps one hot or misbehaving client from starving
//    the rest — the zipf head in the open-loop workload;
//  - a global byte budget over admitted-but-unresolved bytes (in an open
//    batch, a closed batch, or a proposed-but-unconfirmed block). The budget
//    is what bounds ingress memory at any offered load: once it is full,
//    every further request is rejected until confirmations or expiries
//    release bytes.
//
// The per-client bucket table itself is bounded (kMaxTrackedClients): idle
// clients whose buckets refilled to full are evicted lazily, and when the
// table is full of *active* clients the controller fails closed (capacity
// rejection) rather than growing without bound — with 10^6 distinct clients
// an unbounded map is just a slower memory leak.
//
// Threading: confined to the owning node's event-loop thread, like the
// mempool it feeds.

#ifndef CLANDAG_INGRESS_ADMISSION_H_
#define CLANDAG_INGRESS_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/time.h"

namespace clandag {

// Cap on distinct client token buckets held at once; beyond it, idle-full
// buckets are evicted and (if none is evictable) new clients are rejected
// with retry-after instead of growing the table.
inline constexpr size_t kMaxTrackedClients = 1u << 16;

struct AdmissionOptions {
  // Token bucket: capacity `bucket_burst` requests, refilled continuously at
  // `tokens_per_sec`. A fresh client starts with a full bucket.
  double tokens_per_sec = 2000.0;
  double bucket_burst = 32.0;
  // Global cap on admitted-but-unresolved bytes.
  uint64_t global_byte_budget = 8u << 20;
  // A bucket that has been idle (and full) at least this long is evictable.
  TimeMicros idle_eviction = Seconds(10);
  size_t max_tracked_clients = kMaxTrackedClients;
};

enum class AdmitVerdict : uint8_t {
  kAdmit,
  kRejectRate,      // Per-client bucket empty.
  kRejectCapacity,  // Global byte budget (or client table) full.
};

struct AdmitDecision {
  AdmitVerdict verdict = AdmitVerdict::kAdmit;
  TimeMicros retry_after = 0;  // Meaningful for both rejection verdicts.
};

struct AdmissionStats {
  uint64_t admitted = 0;
  uint64_t rejected_rate = 0;
  uint64_t rejected_capacity = 0;
  uint64_t buckets_evicted = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  // Decides one request of `bytes` payload from `client` at time `now`.
  // On kAdmit the bytes are charged against the global budget; the caller
  // must Release() them once the request is resolved (confirmed, expired,
  // or dropped downstream).
  AdmitDecision Admit(uint64_t client, size_t bytes, TimeMicros now);

  // Returns bytes to the global budget.
  void Release(size_t bytes);

  uint64_t InFlightBytes() const { return in_flight_bytes_; }
  size_t TrackedClients() const { return buckets_.size(); }
  const AdmissionStats& stats() const { return stats_; }
  const AdmissionOptions& options() const { return options_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    TimeMicros last_touch = 0;
  };

  void Refill(Bucket& bucket, TimeMicros now) const;
  // Evicts idle-full buckets; returns true if at least one slot was freed.
  bool EvictIdle(TimeMicros now);

  AdmissionOptions options_;
  std::unordered_map<uint64_t, Bucket> buckets_;  // Bounded by max_tracked_clients.
  uint64_t in_flight_bytes_ = 0;
  AdmissionStats stats_;
};

}  // namespace clandag

#endif  // CLANDAG_INGRESS_ADMISSION_H_
