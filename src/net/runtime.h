// Runtime: the environment abstraction all protocol code is written against.
//
// A Runtime gives a node its identity, a clock, one-shot timers, and
// point-to-point message delivery. The same consensus/RBC code runs over
// the deterministic simulator (sim::SimRuntime) and over real TCP sockets
// (net::TcpRuntime).
//
// Message semantics: authenticated point-to-point channels (the paper's
// model). Delivery is asynchronous; the simulator adds latency/bandwidth
// behaviour, real transports inherit the OS's.
//
// `wire_size` lets a caller declare the modelled size of a message whose
// in-memory representation is smaller (synthetic benchmark payloads); real
// transports ignore it and simulated ones feed it to the bandwidth model.
//
// Threading: protocol code is single-threaded per node — OnMessage and every
// Schedule() callback run on the node's one event-loop thread (the
// simulator's driver thread or a TcpRuntime loop thread). TcpRuntime
// additionally allows Send() and Schedule() to be called from any thread;
// the simulator is driver-thread only.

#ifndef CLANDAG_NET_RUNTIME_H_
#define CLANDAG_NET_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/time.h"
#include "crypto/keychain.h"

namespace clandag {

// Message type tag. The concrete values live in consensus/wire.h; the
// transport layer treats them as opaque.
using MsgType = uint16_t;

// Receiving side of a node: the protocol stack implements this.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void OnMessage(NodeId from, MsgType type, const Bytes& payload) = 0;
};

class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual NodeId id() const = 0;
  virtual uint32_t num_nodes() const = 0;
  virtual TimeMicros Now() const = 0;

  // One-shot timer. No cancellation: callbacks guard on current state.
  virtual void Schedule(TimeMicros delay, std::function<void()> fn) = 0;

  // Sends `payload` to `to` (self-sends allowed and delivered like any other
  // message). The payload is shared, not copied, across a multicast.
  virtual void Send(NodeId to, MsgType type, std::shared_ptr<const Bytes> payload,
                    size_t wire_size) = 0;

  // -- Convenience helpers (non-virtual). --

  // The by-value helpers move `payload` into a pooled shared buffer
  // (common/pool.h), so the capacity is recycled once the transport drops
  // its last reference.
  void Send(NodeId to, MsgType type, Bytes payload);

  void Multicast(const std::vector<NodeId>& targets, MsgType type, Bytes payload,
                 size_t wire_size = 0);

  // Sends to every node in the system, including self.
  void Broadcast(MsgType type, Bytes payload, size_t wire_size = 0);

  // Pre-shared variants: serialize once, enqueue the same buffer everywhere
  // (see EncodeToShared in common/pool.h). `wire_size` of 0 means the
  // payload's own size. Virtual so transports can fan the shared buffer out
  // in one hop (TcpRuntime encodes one frame header and appends the same
  // payload to every per-peer out-queue); the default loops over Send().
  virtual void Multicast(const std::vector<NodeId>& targets, MsgType type,
                         std::shared_ptr<const Bytes> payload, size_t wire_size = 0);
  virtual void Broadcast(MsgType type, std::shared_ptr<const Bytes> payload,
                         size_t wire_size = 0);
};

}  // namespace clandag

#endif  // CLANDAG_NET_RUNTIME_H_
