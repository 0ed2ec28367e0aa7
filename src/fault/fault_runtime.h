// FaultInjectingRuntime: a Runtime decorator that subjects a node's outbound
// traffic to a shared FaultInjector.
//
// Stacks under a ByzantineRuntime and over any concrete transport
// (SimRuntime, TcpRuntime), so one FaultPlan runs unchanged over the
// simulator and over real sockets. Self-sends bypass injection: loopback
// delivery is node-internal, not network traffic.
//
// Delayed deliveries ride the inner runtime's own timer (Schedule + Send),
// so in the simulator they stay deterministic and on real transports they
// run on the loop thread like any other timer.
//
// Threading: same contract as the wrapped Runtime — Send()/Schedule() are
// callable from wherever the inner transport allows them; the shared
// FaultInjector synchronizes internally.

#ifndef CLANDAG_FAULT_FAULT_RUNTIME_H_
#define CLANDAG_FAULT_FAULT_RUNTIME_H_

#include <memory>
#include <utility>

#include "fault/injector.h"
#include "net/runtime.h"

namespace clandag {

class FaultInjectingRuntime final : public Runtime {
 public:
  FaultInjectingRuntime(Runtime& inner, FaultInjector& injector)
      : inner_(inner), injector_(injector) {}

  using Runtime::Send;
  NodeId id() const override { return inner_.id(); }
  uint32_t num_nodes() const override { return inner_.num_nodes(); }
  TimeMicros Now() const override { return inner_.Now(); }
  void Schedule(TimeMicros delay, std::function<void()> fn) override {
    inner_.Schedule(delay, std::move(fn));
  }

  void Send(NodeId to, MsgType type, std::shared_ptr<const Bytes> payload,
            size_t wire_size) override {
    if (to == id()) {
      inner_.Send(to, type, std::move(payload), wire_size);
      return;
    }
    const FaultInjector::Decision d = injector_.OnSend(id(), to, type, inner_.Now());
    if (d.drop) {
      return;
    }
    if (d.duplicate) {
      inner_.Send(to, type, payload, wire_size);
    }
    if (d.delay > 0) {
      inner_.Schedule(d.delay, [this, to, type, payload = std::move(payload), wire_size] {
        inner_.Send(to, type, payload, wire_size);
      });
    } else {
      inner_.Send(to, type, std::move(payload), wire_size);
    }
  }

 private:
  Runtime& inner_;
  FaultInjector& injector_;
};

}  // namespace clandag

#endif  // CLANDAG_FAULT_FAULT_RUNTIME_H_
