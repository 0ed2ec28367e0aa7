// Counters exposed by real transports (currently TcpRuntime).
//
// All counters are cumulative since Start(). The pre-connect buffer obeys a
// conservation law the TCP chaos tests assert after every partition-and-heal
// cycle:
//
//   preconnect_buffered == preconnect_flushed + preconnect_dropped
//                          + <frames still buffered>
//
// so no frame handed to Send() before the peer connection existed can vanish
// without being counted.
//
// Threading: snapshot of atomics; any thread may read it.

#ifndef CLANDAG_NET_TRANSPORT_STATS_H_
#define CLANDAG_NET_TRANSPORT_STATS_H_

#include <cstdint>

namespace clandag {

struct TransportStats {
  // Send() calls targeting a remote peer (loopback excluded).
  uint64_t sends = 0;
  // Frames held because the peer had no established connection. Includes
  // frames salvaged from a connection that died before writing them.
  uint64_t preconnect_buffered = 0;
  // Buffered frames moved onto a freshly established connection.
  uint64_t preconnect_flushed = 0;
  // Buffered frames evicted (oldest-first) by the max_preconnect_bytes bound.
  uint64_t preconnect_dropped = 0;
  // Frames rejected because the peer's outbound queue hit
  // kMaxOutQueueBytes (newest-dropped so the stream stays frame-aligned).
  uint64_t queue_dropped = 0;
  // Frames lost half-written when their connection died (cannot be resent on
  // a new stream without corrupting framing).
  uint64_t partial_dropped = 0;
  uint64_t dial_attempts = 0;
  uint64_t dial_failures = 0;
  // Established connections (either direction) that were torn down.
  uint64_t conns_closed = 0;
};

// Liveness of one outbound peer link.
struct PeerHealth {
  // Dial failures since the last successful connect; drives the exponential
  // backoff and is the "peer probably down" signal for operators.
  uint32_t consecutive_failures = 0;
  bool connected = false;
};

}  // namespace clandag

#endif  // CLANDAG_NET_TRANSPORT_STATS_H_
