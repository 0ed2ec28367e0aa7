// Discrete-event scheduler.
//
// Two internal queues: a callback heap for timers (few, std::function-based)
// and a calendar queue for network deliveries (millions per simulated second
// at n = 150, so kept as compact entries indexing a slot pool; see
// sim/msg_queue.h). Events with equal timestamps fire in scheduling order via
// a global sequence number, which keeps runs deterministic.

#ifndef CLANDAG_SIM_SCHEDULER_H_
#define CLANDAG_SIM_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/bytes.h"
#include "common/time.h"
#include "crypto/keychain.h"
#include "net/runtime.h"
#include "sim/msg_queue.h"

namespace clandag {

// A network delivery pending in the simulator.
struct MsgEvent {
  TimeMicros at;
  uint64_t seq;
  NodeId to;
  NodeId from;
  MsgType type;
  // Set once the receiver's modelled CPU cost has been charged (the event
  // was re-queued at its processing-completion time).
  bool cpu_applied = false;
  // Modelled size on the wire (>= payload size; synthetic payloads inflate).
  uint32_t wire_size = 0;
  std::shared_ptr<const Bytes> payload;
};

class Scheduler {
 public:
  using MsgSink = std::function<void(const MsgEvent&)>;

  Scheduler() = default;

  TimeMicros Now() const { return now_; }
  uint64_t EventsProcessed() const { return events_processed_; }

  void ScheduleCallbackAt(TimeMicros at, std::function<void()> fn);
  void ScheduleMessageAt(TimeMicros at, NodeId to, NodeId from, MsgType type,
                         std::shared_ptr<const Bytes> payload, uint32_t wire_size,
                         bool cpu_applied = false);

  // Delivery target for message events (set once by the network).
  void SetMessageSink(MsgSink sink) { sink_ = std::move(sink); }

  // Processes the single earliest event; returns false when idle.
  bool Step();

  // Runs events until the queue empties or virtual time would pass `t`;
  // leaves Now() == t if the queue drained first.
  void RunUntil(TimeMicros t);
  void RunFor(TimeMicros d) { RunUntil(now_ + d); }

  // Runs until both queues are empty (or `max_events` processed, 0 = no cap).
  void RunUntilIdle(uint64_t max_events = 0);

  bool Idle() const { return callbacks_.empty() && messages_.empty(); }
  size_t PendingMessages() const { return messages_.size(); }

 private:
  struct CallbackEvent {
    TimeMicros at;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct CallbackLater {
    bool operator()(const CallbackEvent& a, const CallbackEvent& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  // Returns the timestamp+seq of the earliest pending event, if any.
  bool PeekNext(TimeMicros& at, uint64_t& seq, bool& is_message);

  uint32_t AcquireSlot();

  TimeMicros now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  MsgSink sink_;
  std::priority_queue<CallbackEvent, std::vector<CallbackEvent>, CallbackLater> callbacks_;
  // Messages live in a calendar queue of compact entries indexing a slot
  // pool — heap churn over millions of in-flight events is the simulator's
  // hot path at n = 150.
  MsgCalendarQueue messages_;
  std::vector<MsgEvent> pool_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace clandag

#endif  // CLANDAG_SIM_SCHEDULER_H_
