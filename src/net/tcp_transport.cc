#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/check.h"
#include "common/codec.h"
#include "common/log.h"
#include "common/pool.h"

namespace clandag {

namespace {

constexpr uint32_t kHelloMagic = 0xc1a9da60;
// Frame header: u32 length of (type + payload).
constexpr size_t kFrameHeader = 4;
constexpr size_t kMaxFrame = 64u << 20;  // 64 MiB sanity bound.
constexpr size_t kReadChunk = 64u << 10;  // Bytes of tail room per read().
// Per-peer outbound queue bound: a frame that would push the queue past it is
// dropped (newest-dropped, keeping the stream frame-aligned) and counted.
constexpr size_t kMaxOutQueueBytes = 64u << 20;
// Relative spread of every dial backoff (see TcpConfig::dial_retry).
constexpr double kDialJitter = 0.2;

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  CLANDAG_CHECK(flags >= 0);
  CLANDAG_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpRuntime::OutFrame TcpRuntime::MakeFrame(MsgType type, std::shared_ptr<const Bytes> payload,
                                           bool control) {
  OutFrame f;
  const uint32_t len = static_cast<uint32_t>(2 + payload->size());
  for (int i = 0; i < 4; ++i) {
    f.header[static_cast<size_t>(i)] = static_cast<uint8_t>(len >> (8 * i));
  }
  f.header[4] = static_cast<uint8_t>(type);
  f.header[5] = static_cast<uint8_t>(type >> 8);
  f.payload = std::move(payload);
  f.control = control;
  return f;
}

TcpRuntime::OutFrame TcpRuntime::EncodeHello(NodeId id) {
  return MakeFrame(0xffff, EncodeToShared([id](Writer& w) {
                     w.U32(kHelloMagic);
                     w.U32(id);
                   }),
                   /*control=*/true);
}

TcpRuntime::TcpRuntime(TcpConfig config, MessageHandler* handler)
    : config_(std::move(config)), handler_(handler) {
  CLANDAG_CHECK(config_.num_nodes > 0 && config_.id < config_.num_nodes);
  outbound_fd_.assign(config_.num_nodes, -1);
  preconnect_buf_.resize(config_.num_nodes);
  preconnect_bytes_.assign(config_.num_nodes, 0);
  peer_failures_ = std::make_unique<std::atomic<uint32_t>[]>(config_.num_nodes);
  peer_connected_ = std::make_unique<std::atomic<bool>[]>(config_.num_nodes);
  rng_ = DetRng(config_.seed ^ ((config_.id + 1) * 0x9e3779b97f4a7c15ULL));
  epoch_ = std::chrono::steady_clock::now();
  // The epoll instance and wake eventfd live for the whole object lifetime
  // (not Start()..Stop()): Post()/Send() from other threads write wake_fd_
  // without synchronization, so it must never be closed (and its descriptor
  // number possibly recycled) while such a call can still be in flight.
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  CLANDAG_CHECK(epoll_fd_ >= 0);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  CLANDAG_CHECK(wake_fd_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  CLANDAG_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
}

TcpRuntime::~TcpRuntime() {
  Stop();
  close(wake_fd_);
  close(epoll_fd_);
}

TimeMicros TcpRuntime::Now() const {
  auto d = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

void TcpRuntime::Start() {
  CLANDAG_CHECK(!running_.load());
  StartListen();
  running_.store(true);
  // Free-running even under SCT: the loop blocks in epoll_wait on real
  // sockets and timers, which the cooperative scheduler cannot model.
  // Scheduled test threads interact with it only through command_mu_ /
  // eventfd (safe; see scheduler.h "Hybrid caveat").
  thread_ = Thread(
      "tcp-loop",
      [this] {
        loop_role_.Acquire();
        Loop();
        loop_role_.Release();
      },
      Thread::Sched::kFreeRunning);

  // Kick off dialling from the loop thread.
  Post([this] {
    loop_role_.AssertHeld();
    for (NodeId peer = 0; peer < config_.num_nodes; ++peer) {
      if (peer != config_.id) {
        DialPeer(peer);
      }
    }
  });
}

void TcpRuntime::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  WakeLoop();
  if (thread_.joinable()) {
    thread_.join();
  }
  // The loop thread has exited and released the role; adopt it for teardown
  // so the analysis (and the runtime owner check) cover this path too.
  loop_role_.Acquire();
  for (auto& [fd, conn] : conns_) {
    close(fd);  // Closing also removes the fd from the epoll set.
  }
  conns_.clear();
  outbound_fd_.assign(config_.num_nodes, -1);
  loop_role_.Release();
  connected_peers_.store(0);
  for (NodeId peer = 0; peer < config_.num_nodes; ++peer) {
    peer_connected_[peer].store(false, std::memory_order_relaxed);
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpRuntime::WakeLoop() {
  uint64_t one = 1;
  ssize_t ignored = write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

bool TcpRuntime::WaitConnected(TimeMicros timeout) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(timeout);
  while (connected_peers_.load() + 1 < config_.num_nodes) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

void TcpRuntime::Post(std::function<void()> fn) {
  {
    MutexLock lock(command_mu_);
    // bounded: drained to a batch on every loop wake-up; producers are the
    // node's own handlers, so the queue tracks in-flight work, not peers.
    // Deque chunk churn is amortized across ~dozens of commands per chunk.
    commands_.push_back(std::move(fn));  // NOLINT(clandag-hotpath-alloc)
  }
  WakeLoop();
}

void TcpRuntime::Schedule(TimeMicros delay, std::function<void()> fn) {
  auto at = std::chrono::steady_clock::now() + std::chrono::microseconds(delay);
  Post([this, at, fn = std::move(fn)]() mutable {
    loop_role_.AssertHeld();
    timers_.push(Timer{at, next_timer_seq_++, std::move(fn)});
  });
}

void TcpRuntime::Send(NodeId to, MsgType type, std::shared_ptr<const Bytes> payload,
                      size_t /*wire_size*/) {
  if (to == config_.id) {
    // Loopback: deliver on the loop thread like any other message.
    Post([this, type, payload = std::move(payload)] {
      loop_role_.AssertHeld();  // Handlers run on the loop thread, like timers.
      handler_->OnMessage(config_.id, type, *payload);
    });
    return;
  }
  Post([this, to, type, payload = std::move(payload)] {
    loop_role_.AssertHeld();
    RouteFrame(to, MakeFrame(type, std::move(payload)));
  });
}

void TcpRuntime::Multicast(const std::vector<NodeId>& targets, MsgType type,
                           std::shared_ptr<const Bytes> payload, size_t /*wire_size*/) {
  // One command for the whole fan-out: the header is encoded once and every
  // target's queue gets a frame aliasing the same payload buffer.
  Post([this, targets, type, payload = std::move(payload)] {
    loop_role_.AssertHeld();
    const OutFrame frame = MakeFrame(type, payload);
    for (NodeId to : targets) {
      if (to == config_.id) {
        handler_->OnMessage(config_.id, type, *payload);
        continue;
      }
      RouteFrame(to, frame);
    }
  });
}

void TcpRuntime::Broadcast(MsgType type, std::shared_ptr<const Bytes> payload,
                           size_t /*wire_size*/) {
  Post([this, type, payload = std::move(payload)] {
    loop_role_.AssertHeld();
    const OutFrame frame = MakeFrame(type, payload);
    for (NodeId to = 0; to < config_.num_nodes; ++to) {
      if (to == config_.id) {
        handler_->OnMessage(config_.id, type, *payload);
        continue;
      }
      RouteFrame(to, frame);
    }
  });
}

void TcpRuntime::RouteFrame(NodeId to, OutFrame frame) {
  n_sends_.fetch_add(1, std::memory_order_relaxed);
  const int fd = outbound_fd_[to];
  auto it = fd >= 0 ? conns_.find(fd) : conns_.end();
  if (it == conns_.end() || !it->second->connected) {
    // No established connection (mesh still forming, or the link is down
    // mid-partition): hold the frame instead of silently dropping it.
    BufferPreconnect(to, std::move(frame));
    return;
  }
  if (EnqueueFrame(*it->second, std::move(frame))) {
    FlushConn(*it->second);
  }
}

void TcpRuntime::BufferPreconnect(NodeId peer, OutFrame frame) {
  n_preconnect_buffered_.fetch_add(1, std::memory_order_relaxed);
  if (frame.size() > config_.max_preconnect_bytes) {
    n_preconnect_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::deque<OutFrame>& buf = preconnect_buf_[peer];
  size_t& bytes = preconnect_bytes_[peer];
  bytes += frame.size();
  buf.push_back(std::move(frame));
  while (bytes > config_.max_preconnect_bytes) {
    bytes -= buf.front().size();
    buf.pop_front();
    n_preconnect_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool TcpRuntime::EnqueueFrame(Conn& conn, OutFrame frame) {
  if (conn.out_bytes + frame.size() > kMaxOutQueueBytes) {
    n_queue_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  conn.out_bytes += frame.size();
  // Capped by kMaxOutQueueBytes above; deque chunk churn is amortized
  // across the ~10 frames each 512-byte chunk holds.
  conn.out_queue.push_back(std::move(frame));  // NOLINT(clandag-hotpath-alloc)
  return true;
}

TransportStats TcpRuntime::Stats() const {
  TransportStats s;
  s.sends = n_sends_.load(std::memory_order_relaxed);
  s.preconnect_buffered = n_preconnect_buffered_.load(std::memory_order_relaxed);
  s.preconnect_flushed = n_preconnect_flushed_.load(std::memory_order_relaxed);
  s.preconnect_dropped = n_preconnect_dropped_.load(std::memory_order_relaxed);
  s.queue_dropped = n_queue_dropped_.load(std::memory_order_relaxed);
  s.partial_dropped = n_partial_dropped_.load(std::memory_order_relaxed);
  s.dial_attempts = n_dial_attempts_.load(std::memory_order_relaxed);
  s.dial_failures = n_dial_failures_.load(std::memory_order_relaxed);
  s.conns_closed = n_conns_closed_.load(std::memory_order_relaxed);
  return s;
}

PeerHealth TcpRuntime::HealthOf(NodeId peer) const {
  CLANDAG_CHECK(peer < config_.num_nodes);
  PeerHealth h;
  h.consecutive_failures = peer_failures_[peer].load(std::memory_order_relaxed);
  h.connected = peer_connected_[peer].load(std::memory_order_relaxed);
  return h;
}

void TcpRuntime::StartListen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CLANDAG_CHECK(listen_fd_ >= 0);
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.base_port + config_.id));
  CLANDAG_CHECK(inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) == 1);
  CLANDAG_CHECK_MSG(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                    "bind failed (port in use?)");
  CLANDAG_CHECK(listen(listen_fd_, 128) == 0);
  SetNonBlocking(listen_fd_);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  CLANDAG_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
}

TimeMicros TcpRuntime::DialBackoff(NodeId peer) {
  const uint32_t failures = peer_failures_[peer].load(std::memory_order_relaxed);
  uint64_t delay = static_cast<uint64_t>(config_.dial_retry);
  const uint64_t cap = static_cast<uint64_t>(config_.dial_retry_cap);
  for (uint32_t i = 0; i < failures && delay < cap; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, cap);
  delay = static_cast<uint64_t>(static_cast<double>(delay) *
                                (1.0 - kDialJitter + 2.0 * kDialJitter * rng_.NextDouble()));
  return static_cast<TimeMicros>(std::max<uint64_t>(delay, 1));
}

void TcpRuntime::ScheduleRedial(NodeId peer) {
  if (!running_.load()) {
    return;
  }
  Schedule(DialBackoff(peer), [this, peer] {
    loop_role_.AssertHeld();
    DialPeer(peer);
  });
}

void TcpRuntime::OnOutboundEstablished(Conn& conn) {
  conn.connected = true;
  conn.out_queue.push_front(EncodeHello(config_.id));
  conn.out_bytes += conn.out_queue.front().size();
  connected_peers_.fetch_add(1);
  peer_failures_[conn.peer].store(0, std::memory_order_relaxed);
  peer_connected_[conn.peer].store(true, std::memory_order_relaxed);
  // Release everything buffered while the link was down. A frame evicted
  // here by the queue bound is counted in queue_dropped.
  std::deque<OutFrame>& buf = preconnect_buf_[conn.peer];
  while (!buf.empty()) {
    OutFrame frame = std::move(buf.front());
    buf.pop_front();
    preconnect_bytes_[conn.peer] -= frame.size();
    n_preconnect_flushed_.fetch_add(1, std::memory_order_relaxed);
    EnqueueFrame(conn, std::move(frame));
  }
}

void TcpRuntime::DialPeer(NodeId peer) {
  if (!running_.load() || outbound_fd_[peer] >= 0) {
    return;
  }
  n_dial_attempts_.fetch_add(1, std::memory_order_relaxed);
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CLANDAG_CHECK(fd >= 0);
  SetNonBlocking(fd);
  SetNoDelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.base_port + peer));
  CLANDAG_CHECK(inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) == 1);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    // Peer not up yet; retry with backoff.
    n_dial_failures_.fetch_add(1, std::memory_order_relaxed);
    peer_failures_[peer].fetch_add(1, std::memory_order_relaxed);
    ScheduleRedial(peer);
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->peer = peer;
  conn->outbound = true;
  conn->in_buf = BufferPool::Global().Acquire();
  conn->payload_scratch = BufferPool::Global().Acquire();
  outbound_fd_[peer] = fd;
  if (rc == 0) {
    OnOutboundEstablished(*conn);
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.fd = fd;
  CLANDAG_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
  conns_.emplace(fd, std::move(conn));
}

void TcpRuntime::HandleAccept() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      break;
    }
    SetNoDelay(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->outbound = false;
    conn->connected = true;
    conn->in_buf = BufferPool::Global().Acquire();
    conn->payload_scratch = BufferPool::Global().Acquire();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    CLANDAG_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
    conns_.emplace(fd, std::move(conn));
  }
}

void TcpRuntime::ProcessFrames(Conn& conn) {
  // Decode in place: frames are parsed directly out of the pooled read
  // buffer, and only the payload bytes of a complete frame are copied into
  // the connection's reusable scratch (the MessageHandler contract is
  // borrow-during-call, and `Bytes` cannot alias a sub-range). The scratch
  // keeps its capacity across frames, so the steady state allocates nothing
  // — the old path built a fresh heap `Bytes` per message.
  Bytes& in = *conn.in_buf;
  Bytes& payload = *conn.payload_scratch;
  size_t pos = 0;
  while (in.size() - pos >= kFrameHeader) {
    uint32_t len = 0;
    for (size_t i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(in[pos + i]) << (8 * i);
    }
    if (len < 2 || len > kMaxFrame) {
      CLANDAG_WARN("node %u: bad frame length %u, closing", config_.id, len);
      CloseConn(conn.fd);
      return;
    }
    if (in.size() - pos - kFrameHeader < len) {
      break;  // Incomplete frame.
    }
    const uint8_t* body = in.data() + pos + kFrameHeader;
    MsgType type = static_cast<MsgType>(body[0]) | (static_cast<MsgType>(body[1]) << 8);
    payload.assign(body + 2, body + len);
    pos += kFrameHeader + len;

    if (type == 0xffff) {
      // Hello frame identifying an inbound peer.
      Reader r(payload);
      uint32_t magic = r.U32();
      NodeId peer = r.U32();
      if (!r.ok() || magic != kHelloMagic || peer >= config_.num_nodes) {
        CLANDAG_WARN("node %u: bad hello, closing", config_.id);
        CloseConn(conn.fd);
        return;
      }
      conn.peer = peer;
      continue;
    }
    if (conn.peer == UINT32_MAX) {
      CLANDAG_WARN("node %u: frame before hello, closing", config_.id);
      CloseConn(conn.fd);
      return;
    }
    handler_->OnMessage(conn.peer, type, payload);
  }
  if (pos > 0) {
    in.erase(in.begin(), in.begin() + static_cast<long>(pos));
  }
}

void TcpRuntime::HandleReadable(Conn& conn) {
  // read() lands directly in the pooled buffer: make room at the tail, read
  // into it, trim to what actually arrived. Capacity is retained across
  // reads (and recycled across connections via the pool), so the steady
  // state performs no allocation and no stack-buffer bounce copy.
  Bytes& in = *conn.in_buf;
  while (true) {
    const size_t old_size = in.size();
    in.resize(old_size + kReadChunk);
    ssize_t n = read(conn.fd, in.data() + old_size, kReadChunk);
    if (n > 0) {
      in.resize(old_size + static_cast<size_t>(n));
      continue;
    }
    in.resize(old_size);
    if (n == 0) {
      CloseConn(conn.fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    CloseConn(conn.fd);
    return;
  }
  ProcessFrames(conn);
}

void TcpRuntime::FlushConn(Conn& conn) {
  if (!conn.connected) {
    return;
  }
  // Headers and payloads are scattered straight from the queue with
  // sendmsg(): no per-peer frame assembly, and up to kGatherFrames frames
  // go out per syscall. `out_offset` is the byte offset into the *front*
  // frame (header + payload) already written.
  constexpr size_t kGatherFrames = 32;
  while (!conn.out_queue.empty()) {
    iovec iov[kGatherFrames * 2];
    size_t niov = 0;
    size_t gathered = 0;
    size_t skip = conn.out_offset;  // Only the front frame is partially sent.
    for (const OutFrame& f : conn.out_queue) {
      if (niov + 2 > kGatherFrames * 2) {
        break;
      }
      size_t off = skip;
      skip = 0;
      if (off < kHeaderBytes) {
        iov[niov].iov_base = const_cast<uint8_t*>(f.header.data() + off);
        iov[niov].iov_len = kHeaderBytes - off;
        gathered += iov[niov].iov_len;
        ++niov;
        off = 0;
      } else {
        off -= kHeaderBytes;
      }
      const Bytes& p = *f.payload;
      if (off < p.size()) {
        iov[niov].iov_base = const_cast<uint8_t*>(p.data() + off);
        iov[niov].iov_len = p.size() - off;
        gathered += iov[niov].iov_len;
        ++niov;
      }
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    // MSG_NOSIGNAL: a peer that closed mid-send must surface as EPIPE, not
    // kill the process with SIGPIPE.
    ssize_t n = sendmsg(conn.fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      CloseConn(conn.fd);
      return;
    }
    conn.out_offset += static_cast<size_t>(n);
    while (!conn.out_queue.empty() && conn.out_offset >= conn.out_queue.front().size()) {
      conn.out_offset -= conn.out_queue.front().size();
      conn.out_bytes -= conn.out_queue.front().size();
      conn.out_queue.pop_front();
    }
    if (static_cast<size_t>(n) < gathered) {
      // Short write: the socket buffer is full, so the next sendmsg() would
      // only return EAGAIN. Leave the rest for EPOLLOUT.
      break;
    }
  }
  UpdateEpoll(conn);
}

void TcpRuntime::HandleWritable(Conn& conn) {
  if (conn.outbound && !conn.connected) {
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      // CloseConn counts the dial failure and schedules the backed-off redial.
      CloseConn(conn.fd);
      return;
    }
    OnOutboundEstablished(conn);
  }
  FlushConn(conn);
}

void TcpRuntime::UpdateEpoll(Conn& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (!conn.out_queue.empty() || (conn.outbound && !conn.connected)) {
    ev.events |= EPOLLOUT;
  }
  ev.data.fd = conn.fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void TcpRuntime::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  Conn& conn = *it->second;
  if (conn.connected) {
    n_conns_closed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn.outbound && conn.peer != UINT32_MAX && outbound_fd_[conn.peer] == fd) {
    outbound_fd_[conn.peer] = -1;
    if (conn.connected) {
      connected_peers_.fetch_sub(1);
      peer_connected_[conn.peer].store(false, std::memory_order_relaxed);
    } else {
      // The dial itself failed: feed the failure streak driving the backoff.
      n_dial_failures_.fetch_add(1, std::memory_order_relaxed);
      peer_failures_[conn.peer].fetch_add(1, std::memory_order_relaxed);
    }
    // Salvage queued payload frames back into the pre-connect buffer so a
    // reconnect re-sends them (duplicates are fine; RBC is idempotent). The
    // half-written front frame cannot go onto a fresh stream without
    // corrupting framing, so it is dropped — but counted, never silent.
    bool first = true;
    for (OutFrame& f : conn.out_queue) {
      const bool partial = first && conn.out_offset > 0;
      first = false;
      if (partial) {
        if (!f.control) {
          n_partial_dropped_.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      if (!f.control) {
        BufferPreconnect(conn.peer, std::move(f));
      }
    }
    if (running_.load()) {
      ScheduleRedial(conn.peer);
    }
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
  conns_.erase(it);
}

void TcpRuntime::DrainCommandQueue() {
  std::deque<std::function<void()>> batch;
  {
    MutexLock lock(command_mu_);
    batch.swap(commands_);
  }
  for (auto& fn : batch) {
    fn();
  }
}

void TcpRuntime::Loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load()) {
    // Fire due timers; compute wait until the next one.
    int timeout_ms = 100;
    auto now = std::chrono::steady_clock::now();
    while (!timers_.empty() && timers_.top().at <= now) {
      auto fn = std::move(const_cast<Timer&>(timers_.top()).fn);
      timers_.pop();
      fn();
      now = std::chrono::steady_clock::now();
    }
    if (!timers_.empty()) {
      auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(timers_.top().at - now);
      timeout_ms = std::max(0, std::min<int>(100, static_cast<int>(delta.count()) + 1));
    }

    int n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0 && errno != EINTR) {
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t junk;
        ssize_t ignored = read(wake_fd_, &junk, sizeof(junk));
        (void)ignored;
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) {
        continue;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        if (it->second->outbound && !it->second->connected) {
          HandleWritable(*it->second);  // Surfaces the connect error.
        } else {
          CloseConn(fd);
        }
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        HandleWritable(*it->second);
      }
      if (conns_.count(fd) && (events[i].events & EPOLLIN)) {
        HandleReadable(*it->second);
      }
    }
    DrainCommandQueue();
  }
}

}  // namespace clandag
