// Measurement probes the benchmark wraps around the program's public entry
// points. Nothing here reaches inside a layer: every number comes from
// timing or counting calls that cross a layer boundary.
//
//  - TracingHandler wraps a node's MessageHandler and times OnMessage per
//    message family (consensus handler time);
//  - CountingRuntime decorates a node's Runtime and counts what the node
//    sends, per family, in messages and bytes, plus the time spent inside
//    the send calls. It forwards the shared-payload Multicast/Broadcast
//    overloads, so TcpRuntime keeps its single-serialize fan-out;
//  - Percentile/Median summarise per-call or per-run samples.
//
// A probe belongs to one node and is touched only from that node's
// event-loop thread (the simulator's driver thread, or one TcpRuntime
// loop), so counters are plain integers read after the run has stopped.

#ifndef CLANDAG_PERFBENCH_PROBES_H_
#define CLANDAG_PERFBENCH_PROBES_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "consensus/wire.h"
#include "net/runtime.h"

namespace clandag {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Message families the per-layer metrics are reported by. kOther collects
// any tag outside the consensus/sync space (client frames, future types) so
// per-family sums still add up to the transport's total.
enum Family : size_t {
  kVal,
  kEcho,
  kReady,
  kCert,
  kBlock,
  kPull,
  kVote,
  kSync,
  kOther,
  kNumFamilies
};

inline constexpr std::array<const char*, kNumFamilies> kFamilyNames = {
    "val", "echo", "ready", "cert", "block", "pull", "vote", "sync", "other"};

inline Family FamilyOf(MsgType type) {
  switch (type) {
    case kConsVertexVal:
      return kVal;
    case kConsEcho:
      return kEcho;
    case kConsReady:
      return kReady;
    case kConsCert:
      return kCert;
    case kConsBlock:
      return kBlock;
    case kConsVertexPullReq:
    case kConsVertexPullResp:
    case kConsBlockPullReq:
    case kConsBlockPullResp:
      return kPull;
    case kConsNoVote:
    case kConsTimeout:
      return kVote;
    case kConsFetchRequest:
    case kConsFetchResponse:
    case kConsSnapshotOffer:
    case kConsSnapshotChunkRequest:
    case kConsSnapshotChunk:
      return kSync;
    default:
      return kOther;
  }
}

struct FamilyCounters {
  std::array<uint64_t, kNumFamilies> msgs{};
  std::array<uint64_t, kNumFamilies> bytes{};
  std::array<double, kNumFamilies> handler_us{};
  double send_us = 0;

  FamilyCounters& operator+=(const FamilyCounters& o) {
    for (size_t i = 0; i < kNumFamilies; ++i) {
      msgs[i] += o.msgs[i];
      bytes[i] += o.bytes[i];
      handler_us[i] += o.handler_us[i];
    }
    send_us += o.send_us;
    return *this;
  }

  uint64_t TotalMsgs() const {
    uint64_t total = 0;
    for (uint64_t m : msgs) {
      total += m;
    }
    return total;
  }

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (uint64_t b : bytes) {
      total += b;
    }
    return total;
  }
};

class TracingHandler final : public MessageHandler {
 public:
  TracingHandler(MessageHandler* inner, FamilyCounters* counters)
      : inner_(inner), counters_(counters) {}

  void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
    const Clock::time_point start = Clock::now();
    inner_->OnMessage(from, type, payload);
    counters_->handler_us[FamilyOf(type)] += MicrosSince(start);
  }

 private:
  MessageHandler* inner_;
  FamilyCounters* counters_;
};

// Counts one message per recipient, as the transports do (a multicast to k
// peers is k messages of the payload's size).
class CountingRuntime final : public Runtime {
 public:
  CountingRuntime(Runtime* inner, FamilyCounters* counters)
      : inner_(inner), counters_(counters) {}

  using Runtime::Broadcast;
  using Runtime::Multicast;
  using Runtime::Send;

  NodeId id() const override { return inner_->id(); }
  uint32_t num_nodes() const override { return inner_->num_nodes(); }
  TimeMicros Now() const override { return inner_->Now(); }
  void Schedule(TimeMicros delay, std::function<void()> fn) override {
    inner_->Schedule(delay, std::move(fn));
  }

  void Send(NodeId to, MsgType type, std::shared_ptr<const Bytes> payload,
            size_t wire_size) override {
    Count(type, 1, wire_size);
    const Clock::time_point start = Clock::now();
    inner_->Send(to, type, std::move(payload), wire_size);
    counters_->send_us += MicrosSince(start);
  }

  void Multicast(const std::vector<NodeId>& targets, MsgType type,
                 std::shared_ptr<const Bytes> payload, size_t wire_size) override {
    Count(type, targets.size(), wire_size == 0 ? payload->size() : wire_size);
    const Clock::time_point start = Clock::now();
    inner_->Multicast(targets, type, std::move(payload), wire_size);
    counters_->send_us += MicrosSince(start);
  }

  void Broadcast(MsgType type, std::shared_ptr<const Bytes> payload,
                 size_t wire_size) override {
    Count(type, inner_->num_nodes(), wire_size == 0 ? payload->size() : wire_size);
    const Clock::time_point start = Clock::now();
    inner_->Broadcast(type, std::move(payload), wire_size);
    counters_->send_us += MicrosSince(start);
  }

 private:
  void Count(MsgType type, uint64_t copies, size_t size) {
    const Family family = FamilyOf(type);
    counters_->msgs[family] += copies;
    counters_->bytes[family] += copies * size;
  }

  Runtime* inner_;
  FamilyCounters* counters_;
};

// Nearest-rank percentile over unweighted samples (sorts in place).
inline double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size());
  size_t idx = rank <= 1 ? 0 : static_cast<size_t>(rank + 0.999999) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

inline double Median(std::vector<double> values) { return Percentile(values, 50); }

}  // namespace perfbench
}  // namespace clandag

#endif  // CLANDAG_PERFBENCH_PROBES_H_
