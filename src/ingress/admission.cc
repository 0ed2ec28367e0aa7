#include "ingress/admission.h"

#include <algorithm>

#include "common/check.h"

namespace clandag {
namespace {

// Retry hint attached to capacity rejections (rate rejections compute the
// exact token refill time instead).
constexpr TimeMicros kCapacityRetryAfter = Millis(50);

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options) : options_(options) {
  CLANDAG_CHECK(options_.tokens_per_sec > 0.0);
  CLANDAG_CHECK(options_.bucket_burst >= 1.0);
  CLANDAG_CHECK(options_.max_tracked_clients > 0);
}

void AdmissionController::Refill(Bucket& bucket, TimeMicros now) const {
  if (now <= bucket.last_touch) {
    return;
  }
  const double elapsed_sec = ToSeconds(now - bucket.last_touch);
  bucket.tokens = std::min(options_.bucket_burst,
                           bucket.tokens + elapsed_sec * options_.tokens_per_sec);
  bucket.last_touch = now;
}

bool AdmissionController::EvictIdle(TimeMicros now) {
  bool evicted = false;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    Bucket probe = it->second;
    Refill(probe, now);
    const bool idle_full = probe.tokens >= options_.bucket_burst &&
                           now - it->second.last_touch >= options_.idle_eviction;
    if (idle_full) {
      it = buckets_.erase(it);
      ++stats_.buckets_evicted;
      evicted = true;
    } else {
      ++it;
    }
  }
  return evicted;
}

AdmitDecision AdmissionController::Admit(uint64_t client, size_t bytes, TimeMicros now) {
  // Global byte budget first: it protects the node, the bucket protects
  // fairness among clients.
  if (in_flight_bytes_ + bytes > options_.global_byte_budget) {
    ++stats_.rejected_capacity;
    return {AdmitVerdict::kRejectCapacity, kCapacityRetryAfter};
  }

  auto it = buckets_.find(client);
  if (it == buckets_.end()) {
    if (buckets_.size() >= options_.max_tracked_clients && !EvictIdle(now)) {
      // Table full of active clients: fail closed rather than grow.
      ++stats_.rejected_capacity;
      return {AdmitVerdict::kRejectCapacity, kCapacityRetryAfter};
    }
    it = buckets_.emplace(client, Bucket{options_.bucket_burst, now}).first;
  }

  Bucket& bucket = it->second;
  Refill(bucket, now);
  if (bucket.tokens < 1.0) {
    ++stats_.rejected_rate;
    const double missing = 1.0 - bucket.tokens;
    const TimeMicros retry = static_cast<TimeMicros>(
        missing / options_.tokens_per_sec * static_cast<double>(kMicrosPerSecond));
    return {AdmitVerdict::kRejectRate, std::max<TimeMicros>(retry, 1)};
  }
  bucket.tokens -= 1.0;
  in_flight_bytes_ += bytes;
  ++stats_.admitted;
  return {AdmitVerdict::kAdmit, 0};
}

void AdmissionController::Release(size_t bytes) {
  CLANDAG_CHECK(in_flight_bytes_ >= bytes);
  in_flight_bytes_ -= bytes;
}

}  // namespace clandag
