// Epoll-based TCP transport.
//
// Hosts one protocol node over real sockets. Nodes form a full mesh: every
// node listens on base_port + id and dials every peer; a dialled connection
// starts with a hello frame carrying the dialler's node id and is used for
// messages in that direction only, so each ordered pair (i, j) has its own
// byte stream (matching the authenticated-channel model).
//
// Wire format per frame: u32 length (of the rest), u16 type, payload.
//
// Threading: a single event-loop thread owns all sockets and timers; the
// registered MessageHandler and all timer callbacks run on that thread. That
// ownership rule is not just a comment: it is the `loop_role_` capability
// below — connection state is CLANDAG_GUARDED_BY(loop_role_), loop-only
// member functions are CLANDAG_REQUIRES(loop_role_), and work posted onto the
// loop opens with loop_role_.AssertHeld(). Send(), Post() and Schedule() are
// callable from any thread (handed to the loop via a mutex-guarded command
// queue plus an eventfd wake-up); Stop() joins the loop thread and then
// adopts the role to tear connection state down. The eventfd and epoll fd
// live from constructor to destructor so a Send() racing Stop() never writes
// to a closed (or recycled) descriptor.
//
// Lock order: command_mu_ is a leaf — no other lock or capability is
// acquired while holding it.

#ifndef CLANDAG_NET_TCP_TRANSPORT_H_
#define CLANDAG_NET_TCP_TRANSPORT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/hot_path.h"
#include "common/mutex.h"
#include "common/pool.h"
#include "common/thread.h"
#include "common/rng.h"
#include "net/runtime.h"
#include "net/transport_stats.h"

namespace clandag {

struct TcpConfig {
  NodeId id = 0;
  uint32_t num_nodes = 0;
  uint16_t base_port = 19000;
  std::string host = "127.0.0.1";  // lint:allow(unset-knob): a deployment address.
  // Initial delay before re-dialling a peer that is not up yet. Consecutive
  // failures double the delay up to dial_retry_cap, with ±20% relative
  // jitter (kDialJitter) so a cluster restarting in lockstep does not hammer a
  // recovering peer in synchronized waves.
  TimeMicros dial_retry = Millis(100);
  TimeMicros dial_retry_cap = Seconds(2);
  // Seed for the (deterministic) jitter RNG; mixed with the node id so every
  // node jitters differently from the same config.
  uint64_t seed = 1;
  // Bytes of frames buffered per peer while no outbound connection is
  // established (consensus starts before the full mesh is up, and links drop
  // during partitions). Oldest frames are evicted on overflow — newer
  // consensus state supersedes older — and every eviction is counted.
  size_t max_preconnect_bytes = 4u << 20;
};

class TcpRuntime final : public Runtime {
 public:
  TcpRuntime(TcpConfig config, MessageHandler* handler);
  ~TcpRuntime() override;

  TcpRuntime(const TcpRuntime&) = delete;
  TcpRuntime& operator=(const TcpRuntime&) = delete;

  // Binds and starts the loop thread; dials peers in the background.
  CLANDAG_COLD void Start();
  // Joins the loop thread and closes all connections. Safe to call
  // concurrently with Send()/Post()/Schedule() from other threads: late
  // commands are enqueued but never executed. Idempotent.
  CLANDAG_COLD void Stop();

  // Blocks until outbound connections to all peers are established (returns
  // false on timeout). Call before injecting the first proposal.
  bool WaitConnected(TimeMicros timeout);

  // Cumulative counters (snapshot of atomics; any thread).
  TransportStats Stats() const;
  // Outbound link health for `peer` (any thread).
  PeerHealth HealthOf(NodeId peer) const;

  // Runs `fn` on the loop thread.
  CLANDAG_HOT void Post(std::function<void()> fn);

  // -- Runtime --
  // Keep the by-value convenience overloads visible alongside the overrides.
  using Runtime::Send;
  using Runtime::Multicast;
  using Runtime::Broadcast;
  NodeId id() const override { return config_.id; }
  uint32_t num_nodes() const override { return config_.num_nodes; }
  TimeMicros Now() const override;
  // cold: timer arming is per-round / per-repair, not per-message.
  CLANDAG_COLD void Schedule(TimeMicros delay, std::function<void()> fn) override;
  CLANDAG_HOT void Send(NodeId to, MsgType type, std::shared_ptr<const Bytes> payload,
                        size_t wire_size) override;
  // Single-serialize fan-out: one loop-thread hop encodes one frame header
  // and appends the same shared payload to every target's out-queue (the
  // default base implementations would Post one command per target and the
  // old transport additionally copied payload bytes into a frame per peer).
  CLANDAG_HOT void Multicast(const std::vector<NodeId>& targets, MsgType type,
                             std::shared_ptr<const Bytes> payload, size_t wire_size = 0) override;
  CLANDAG_HOT void Broadcast(MsgType type, std::shared_ptr<const Bytes> payload,
                             size_t wire_size = 0) override;

 private:
  // Wire frame header: u32 length of (type + payload), u16 type.
  static constexpr size_t kHeaderBytes = 6;

  // One queued outbound frame. The header lives inline; the payload is the
  // shared message buffer itself — a broadcast queues the same Bytes on
  // every peer and the writer scatters header + payload with sendmsg(), so
  // payload bytes are never copied per peer.
  struct OutFrame {
    std::array<uint8_t, kHeaderBytes> header{};
    std::shared_ptr<const Bytes> payload;
    bool control = false;  // Hello frame: never salvaged across reconnects.

    size_t size() const { return kHeaderBytes + payload->size(); }
  };

  struct Conn {
    int fd = -1;
    NodeId peer = UINT32_MAX;  // Unknown until the hello frame arrives.
    bool outbound = false;
    bool connected = false;  // Outbound: connect() completed.
    // Read buffer and per-frame payload scratch are BufferPool checkouts
    // (acquired when the conn is created, returned when it dies): read()
    // lands directly in in_buf — no stack bounce buffer — and each decoded
    // frame is surfaced through payload_scratch, whose capacity is retained
    // across frames and recycled across connections. The steady-state read
    // path therefore allocates nothing (DESIGN.md §15).
    PooledBytes in_buf;
    PooledBytes payload_scratch;
    std::deque<OutFrame> out_queue;
    size_t out_bytes = 0;   // Sum of queued frame sizes (bound enforcement).
    size_t out_offset = 0;  // Bytes of out_queue.front() already written.
  };

  struct Timer {
    std::chrono::steady_clock::time_point at;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      return at != other.at ? at > other.at : other.seq < seq;
    }
  };

  CLANDAG_HOT static OutFrame MakeFrame(MsgType type, std::shared_ptr<const Bytes> payload,
                                        bool control = false);
  // cold: one hello per connection establishment.
  CLANDAG_COLD static OutFrame EncodeHello(NodeId id);

  CLANDAG_HOT void Loop() CLANDAG_REQUIRES(loop_role_);
  CLANDAG_COLD void StartListen();
  // cold: dialing / redialing happens per connection attempt, not per frame.
  CLANDAG_COLD void DialPeer(NodeId peer) CLANDAG_REQUIRES(loop_role_);
  // Backoff delay for the next dial to `peer` (doubling, capped, jittered).
  CLANDAG_COLD TimeMicros DialBackoff(NodeId peer) CLANDAG_REQUIRES(loop_role_);
  CLANDAG_COLD void ScheduleRedial(NodeId peer) CLANDAG_REQUIRES(loop_role_);
  // Connect() finished on an outbound conn: send hello, flush the peer's
  // pre-connect buffer, reset its failure streak. cold: once per link.
  CLANDAG_COLD void OnOutboundEstablished(Conn& conn) CLANDAG_REQUIRES(loop_role_);
  // Appends `frame` to the peer's pre-connect buffer, evicting oldest frames
  // to stay under max_preconnect_bytes. cold: runs only while the peer link
  // is down (mesh formation, partitions).
  CLANDAG_COLD void BufferPreconnect(NodeId peer, OutFrame frame) CLANDAG_REQUIRES(loop_role_);
  // Appends a payload frame to an established conn, enforcing
  // kMaxOutQueueBytes (false = dropped and counted).
  CLANDAG_HOT bool EnqueueFrame(Conn& conn, OutFrame frame) CLANDAG_REQUIRES(loop_role_);
  // Routes one frame towards `to`: out-queue of the established connection,
  // or the pre-connect buffer while the link is down.
  CLANDAG_HOT void RouteFrame(NodeId to, OutFrame frame) CLANDAG_REQUIRES(loop_role_);
  // cold: once per inbound connection.
  CLANDAG_COLD void HandleAccept() CLANDAG_REQUIRES(loop_role_);
  CLANDAG_HOT void HandleReadable(Conn& conn) CLANDAG_REQUIRES(loop_role_);
  CLANDAG_HOT void HandleWritable(Conn& conn) CLANDAG_REQUIRES(loop_role_);
  // cold: connection teardown.
  CLANDAG_COLD void CloseConn(int fd) CLANDAG_REQUIRES(loop_role_);
  CLANDAG_HOT void FlushConn(Conn& conn) CLANDAG_REQUIRES(loop_role_);
  CLANDAG_HOT void UpdateEpoll(Conn& conn) CLANDAG_REQUIRES(loop_role_);
  CLANDAG_HOT void DrainCommandQueue() CLANDAG_REQUIRES(loop_role_);
  CLANDAG_HOT void ProcessFrames(Conn& conn) CLANDAG_REQUIRES(loop_role_);
  CLANDAG_HOT void WakeLoop();

  TcpConfig config_;
  MessageHandler* handler_;
  std::chrono::steady_clock::time_point epoch_;

  // Created in the constructor, closed in the destructor (NOT in Stop()), so
  // cross-thread Post()/Send() can always write the eventfd safely.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;  // Start() opens, Stop() closes.

  // Capability held by the event-loop thread between Start() and Stop()
  // (and briefly by Stop() itself, after the join, for teardown).
  ThreadRole loop_role_;

  std::map<int, std::unique_ptr<Conn>> conns_ CLANDAG_GUARDED_BY(loop_role_);
  // Peer id -> fd (-1 if down).
  std::vector<int> outbound_fd_ CLANDAG_GUARDED_BY(loop_role_);
  // Frames awaiting an outbound connection, per peer, with their byte total.
  std::vector<std::deque<OutFrame>> preconnect_buf_ CLANDAG_GUARDED_BY(loop_role_);
  std::vector<size_t> preconnect_bytes_ CLANDAG_GUARDED_BY(loop_role_);
  DetRng rng_ CLANDAG_GUARDED_BY(loop_role_){1};
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_
      CLANDAG_GUARDED_BY(loop_role_);
  uint64_t next_timer_seq_ CLANDAG_GUARDED_BY(loop_role_) = 0;

  Mutex command_mu_{"tcp.command", lock_rank::kTcpCommand};
  std::deque<std::function<void()>> commands_ CLANDAG_GUARDED_BY(command_mu_);

  std::atomic<bool> running_{false};
  std::atomic<uint32_t> connected_peers_{0};
  Thread thread_;

  // Per-peer consecutive dial failures (reset on connect) and outbound link
  // state. Atomic so HealthOf() reads them off-loop; written only by the
  // loop thread (and Stop() after the join).
  std::unique_ptr<std::atomic<uint32_t>[]> peer_failures_;
  std::unique_ptr<std::atomic<bool>[]> peer_connected_;

  // TransportStats counters. Written by the loop thread, read anywhere.
  std::atomic<uint64_t> n_sends_{0};
  std::atomic<uint64_t> n_preconnect_buffered_{0};
  std::atomic<uint64_t> n_preconnect_flushed_{0};
  std::atomic<uint64_t> n_preconnect_dropped_{0};
  std::atomic<uint64_t> n_queue_dropped_{0};
  std::atomic<uint64_t> n_partial_dropped_{0};
  std::atomic<uint64_t> n_dial_attempts_{0};
  std::atomic<uint64_t> n_dial_failures_{0};
  std::atomic<uint64_t> n_conns_closed_{0};
};

}  // namespace clandag

#endif  // CLANDAG_NET_TCP_TRANSPORT_H_
