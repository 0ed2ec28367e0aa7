// The client side of the two ingress workloads, owned by the benchmark.
//
// NodeClients is one node's client population as a seeded open-loop
// schedule, fixed before the run: Poisson arrivals (1% of them bursts of
// 32), zipf-skewed client choice, 256-byte payloads, frames encoded with
// net/client_wire. Every request is timed from the moment it was DUE, so a
// late pump or a stalled event loop counts against latency, and how late
// the pump ran is recorded as lag. Nothing is shed and nothing goes
// untracked: a request fails only when it is abandoned after its retries
// (rejections and expiries are retried with the same sequence number, at
// most kMaxRetries times) or is still unanswered when the drain ends.
//
// NodeChecker holds one node's outputs for the correctness checks: its
// ordered log, and every (client, seq) it executed, read back from the
// committed blocks.
//
// Threading: both are confined to their node's event-loop thread during the
// run and read by the main thread after the run has stopped.

#ifndef CLANDAG_PERFBENCH_CLIENTS_H_
#define CLANDAG_PERFBENCH_CLIENTS_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/app_node.h"
#include "perfbench/report.h"

namespace clandag {
namespace perfbench {

inline constexpr uint32_t kMaxRetries = 3;

struct IngressLoad {
  double arrivals_per_s = 4000;  // Per node; 16k/s over four nodes.
  double burst_prob = 0.01;
  uint32_t burst_size = 32;
  uint32_t clients = 100000;  // Per node, disjoint id spaces.
  double zipf_skew = 3.0;
  uint32_t payload_bytes = 256;
  TimeMicros duration = Seconds(10);  // Offered window, from Begin().
};

class NodeClients {
 public:
  NodeClients(NodeId node, uint64_t seed, const IngressLoad& load);

  // Starts the schedule: due times are offsets from `base`.
  void Begin(TimeMicros base) { base_ = base; }
  // Hands every arrival and retry due by `now` to `submit`, in due order.
  // `submit` may call OnReply synchronously (rejections do).
  void Pump(TimeMicros now, const std::function<void(const Bytes&)>& submit);
  void OnReply(const ClientReplyMsg& reply, TimeMicros now);
  // Load over and every request answered or abandoned.
  bool Resolved() const { return next_ == requests_.size() && unresolved_ == 0; }

  uint64_t attempted() const { return requests_.size(); }
  uint64_t committed() const { return committed_; }
  uint64_t abandoned() const { return abandoned_; }
  uint64_t unresolved() const { return unresolved_; }
  uint64_t stray_replies() const { return stray_replies_; }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  const std::vector<double>& lags_ms() const { return lags_ms_; }
  // Longest time, from Begin() on, between two committed replies.
  double LongestGapMs() const;

 private:
  enum class State : uint8_t { kPending, kCommitted, kAbandoned };
  struct Request {
    TimeMicros due = 0;  // Offset from base_.
    uint32_t client = 0;
    uint32_t seq = 0;
    uint32_t attempts = 0;
    State state = State::kPending;
  };
  using Retry = std::pair<TimeMicros, uint32_t>;  // (absolute due, request index)

  Bytes Frame(const Request& request) const;
  void Resolve(Request& request, State state);

  IngressLoad load_;
  std::vector<Request> requests_;  // In due order.
  std::unordered_map<uint64_t, uint32_t> index_;  // PackRequestId -> requests_ index.
  std::priority_queue<Retry, std::vector<Retry>, std::greater<Retry>> retries_;
  TimeMicros base_ = 0;
  size_t next_ = 0;
  uint64_t unresolved_ = 0;
  uint64_t committed_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t stray_replies_ = 0;
  std::vector<double> latencies_ms_;
  std::vector<double> lags_ms_;
  std::vector<TimeMicros> commit_times_;
};

class NodeChecker {
 public:
  void OnOrdered(const Vertex& v) { log_.push_back({v.round, v.source}); }
  // Reads the executed block back and records each request id in it.
  void OnReceipt(AppNode& node, const ExecutionReceipt& receipt);

  const std::vector<std::pair<Round, NodeId>>& log() const { return log_; }
  uint64_t duplicate_executions() const { return duplicate_executions_; }
  uint64_t unreadable_blocks() const { return unreadable_blocks_; }

 private:
  std::vector<std::pair<Round, NodeId>> log_;
  std::unordered_map<uint64_t, std::pair<Round, NodeId>> executed_;
  uint64_t duplicate_executions_ = 0;
  uint64_t unreadable_blocks_ = 0;
};

// The node configuration both ingress workloads run (the same ingress and
// consensus settings as bench/bench_fig6_ingress.cc).
AppNodeOptions IngressNodeOptions(uint32_t num_nodes);

// Checks prefix-consistent ordered logs across nodes, exactly-once execution
// and that every reply answers a request the clients sent; a failure marks
// the report incorrect.
bool CheckOutputs(Report& report, const std::vector<NodeChecker>& checkers,
                  const std::vector<NodeClients>& clients, const char* workload);

// What one ingress run measured, pooled over its nodes.
struct IngressRun {
  bool ok = true;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  double offered_s = 0;
  std::vector<double> latencies_ms;
  std::vector<double> lags_ms;
  double outage_ms = 0;  // Longest gap any node's clients saw.
  double host_s = 0;
  IngressStats ingress;
  uint64_t ordered = 0;  // At node 0.
  uint64_t empty_ordered = 0;
  int64_t last_committed_round = -1;
  uint64_t anchors_committed = 0;
  uint64_t anchors_skipped = 0;
  SyncStats sync;
  FamilyCounters counters;
  std::vector<double> submit_us;
  HostSample host_before;
  HostSample host_after;
  uint64_t allocs = 0;

  // Pools the clients' outcomes and the nodes' counters.
  void Collect(const std::vector<NodeClients>& clients, std::vector<AppNode*> nodes);
  // A run that failed a correctness check counts every request as failed.
  uint64_t Failed() const { return ok ? failed : attempted; }
};

// Adds p50_ms, tail_ms, goodput_rps, served_share, outage_ms and host_s
// over the runs' pooled samples (host_s as the median over runs).
void AddIngressEndToEnd(Report& report, const std::vector<IngressRun>& runs, const char* name);

// Adds the ingress and consensus per-layer metrics of one traced run.
void AddIngressLayers(Report& report, const IngressRun& traced, double run_seconds);

}  // namespace perfbench
}  // namespace clandag

#endif  // CLANDAG_PERFBENCH_CLIENTS_H_
