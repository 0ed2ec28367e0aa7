#include "perfbench/clients.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "smr/mempool.h"

namespace clandag {
namespace perfbench {

NodeClients::NodeClients(NodeId node, uint64_t seed, const IngressLoad& load) : load_(load) {
  DetRng rng(seed * 0x9e3779b97f4a7c15ULL + node + 1);
  std::vector<uint32_t> next_seq(load.clients, 0);
  const uint32_t id_base = static_cast<uint32_t>(node) << 24;
  auto add = [&](TimeMicros due) {
    const double u = rng.NextDouble();
    const uint32_t rank = std::min(
        static_cast<uint32_t>(std::pow(u, load.zipf_skew) * load.clients), load.clients - 1);
    requests_.push_back(Request{due, id_base + rank, next_seq[rank]++});
  };
  TimeMicros at = 0;
  while (true) {
    const double gap_s = -std::log1p(-rng.NextDouble()) / load.arrivals_per_s;
    at += std::max<TimeMicros>(1, static_cast<TimeMicros>(gap_s * 1e6));
    if (at >= load.duration) {
      break;
    }
    const uint32_t count = rng.NextDouble() < load.burst_prob ? load.burst_size : 1;
    for (uint32_t i = 0; i < count; ++i) {
      add(at);
    }
  }
  index_.reserve(requests_.size());
  for (uint32_t i = 0; i < requests_.size(); ++i) {
    index_.emplace(PackRequestId(requests_[i].client, requests_[i].seq), i);
  }
  unresolved_ = requests_.size();
  latencies_ms_.reserve(requests_.size());
  lags_ms_.reserve(requests_.size());
  commit_times_.reserve(requests_.size());
}

Bytes NodeClients::Frame(const Request& request) const {
  ClientRequestMsg msg;
  msg.client_id = request.client;
  msg.client_seq = request.seq;
  msg.payload.resize(load_.payload_bytes);
  const uint64_t stamp = PackRequestId(request.client, request.seq);
  for (size_t i = 0; i < msg.payload.size(); ++i) {
    msg.payload[i] = static_cast<uint8_t>((stamp >> ((i % 8) * 8)) ^ i);
  }
  return msg.Encode();
}

void NodeClients::Pump(TimeMicros now, const std::function<void(const Bytes&)>& submit) {
  while (next_ < requests_.size() && base_ + requests_[next_].due <= now) {
    const Request& request = requests_[next_++];
    lags_ms_.push_back(static_cast<double>(now - (base_ + request.due)) / 1000.0);
    submit(Frame(request));
  }
  while (!retries_.empty() && retries_.top().first <= now) {
    const uint32_t idx = retries_.top().second;
    retries_.pop();
    if (requests_[idx].state == State::kPending) {
      submit(Frame(requests_[idx]));
    }
  }
}

void NodeClients::Resolve(Request& request, State state) {
  request.state = state;
  --unresolved_;
}

void NodeClients::OnReply(const ClientReplyMsg& reply, TimeMicros now) {
  auto it = index_.find(PackRequestId(reply.client_id, reply.client_seq));
  if (it == index_.end()) {
    ++stray_replies_;
    return;
  }
  const uint32_t idx = it->second;
  Request& request = requests_[idx];
  if (request.state != State::kPending) {
    return;  // A late reply to a request already settled.
  }
  TimeMicros retry_at = -1;
  switch (reply.status) {
    case ClientReplyStatus::kCommitted:
      Resolve(request, State::kCommitted);
      ++committed_;
      latencies_ms_.push_back(static_cast<double>(now - (base_ + request.due)) / 1000.0);
      commit_times_.push_back(now);
      return;
    case ClientReplyStatus::kDuplicate:
      return;  // Already in the server's window; its outcome is still to come.
    case ClientReplyStatus::kRejectedRate:
    case ClientReplyStatus::kRejectedCapacity:
      retry_at = now + std::max<TimeMicros>(reply.retry_after, 1);
      break;
    case ClientReplyStatus::kExpired:
      retry_at = now + Millis(1);
      break;
    case ClientReplyStatus::kRejectedMalformed:
      Resolve(request, State::kAbandoned);
      ++abandoned_;
      return;
  }
  if (request.attempts >= kMaxRetries) {
    Resolve(request, State::kAbandoned);
    ++abandoned_;
    return;
  }
  ++request.attempts;
  retries_.push({retry_at, idx});
}

double NodeClients::LongestGapMs() const {
  TimeMicros prev = base_;
  TimeMicros gap = 0;
  for (TimeMicros t : commit_times_) {
    gap = std::max(gap, t - prev);
    prev = t;
  }
  return static_cast<double>(gap) / 1000.0;
}

void NodeChecker::OnReceipt(AppNode& node, const ExecutionReceipt& receipt) {
  const BlockInfo* block =
      node.consensus().disseminator().GetBlock(receipt.proposer, receipt.round);
  if (block == nullptr) {
    ++unreadable_blocks_;
    return;
  }
  auto txs = DecodeTxBatch(block->payload);
  if (!txs.has_value()) {
    ++unreadable_blocks_;
    return;
  }
  const std::pair<Round, NodeId> slot{receipt.round, receipt.proposer};
  for (const Transaction& tx : *txs) {
    auto [it, inserted] = executed_.emplace(tx.id, slot);
    if (!inserted && it->second != slot) {
      ++duplicate_executions_;
    }
  }
}

AppNodeOptions IngressNodeOptions(uint32_t num_nodes) {
  AppNodeOptions options;
  options.consensus.num_nodes = num_nodes;
  options.consensus.num_faults = (num_nodes - 1) / 3;
  options.consensus.round_timeout = Seconds(1);
  options.enable_ingress = true;
  options.ingress.batcher.max_batch_wait = Millis(20);
  options.ingress.batcher.max_batch_bytes = 16 << 10;
  options.ingress.admission.global_byte_budget = 2 << 20;
  return options;
}

bool CheckOutputs(Report& report, const std::vector<NodeChecker>& checkers,
                  const std::vector<NodeClients>& clients, const char* workload) {
  bool ok = true;
  for (const NodeClients& c : clients) {
    if (c.stray_replies() > 0) {
      report.Fail(std::string(workload) + ": replies for requests never sent");
      ok = false;
    }
  }
  const NodeChecker* longest = &checkers[0];
  for (const NodeChecker& c : checkers) {
    if (c.log().size() > longest->log().size()) {
      longest = &c;
    }
  }
  for (size_t id = 0; id < checkers.size(); ++id) {
    const auto& log = checkers[id].log();
    if (!std::equal(log.begin(), log.end(), longest->log().begin())) {
      report.Fail(std::string(workload) + ": node " + std::to_string(id) +
                  "'s ordered log is not a prefix of the longest log");
      ok = false;
    }
    if (checkers[id].duplicate_executions() > 0) {
      report.Fail(std::string(workload) + ": node " + std::to_string(id) + " executed " +
                  std::to_string(checkers[id].duplicate_executions()) +
                  " (client, seq) pairs twice");
      ok = false;
    }
    if (checkers[id].unreadable_blocks() > 0) {
      report.Fail(std::string(workload) + ": node " + std::to_string(id) + " executed " +
                  std::to_string(checkers[id].unreadable_blocks()) +
                  " blocks that could not be read back");
      ok = false;
    }
  }
  return ok;
}

void IngressRun::Collect(const std::vector<NodeClients>& clients, std::vector<AppNode*> nodes) {
  for (const NodeClients& c : clients) {
    attempted += c.attempted();
    committed += c.committed();
    failed += c.abandoned() + c.unresolved();
    latencies_ms.insert(latencies_ms.end(), c.latencies_ms().begin(), c.latencies_ms().end());
    lags_ms.insert(lags_ms.end(), c.lags_ms().begin(), c.lags_ms().end());
    outage_ms = std::max(outage_ms, c.LongestGapMs());
  }
  for (AppNode* node : nodes) {
    const IngressStats& s = node->ingress()->stats();
    ingress.received += s.received;
    ingress.duplicates += s.duplicates;
    ingress.rejected_rate += s.rejected_rate;
    ingress.rejected_capacity += s.rejected_capacity;
    ingress.admitted += s.admitted;
    ingress.batches_proposed += s.batches_proposed;
    ingress.txs_proposed += s.txs_proposed;
    ingress.txs_committed += s.txs_committed;
    ingress.txs_expired += s.txs_expired;
    sync += node->sync_stats();
  }
  ordered = nodes[0]->OrderedVertices();
  last_committed_round = nodes[0]->consensus().LastCommittedRound();
  anchors_committed = nodes[0]->consensus().committer().AnchorsCommitted();
  anchors_skipped = nodes[0]->consensus().committer().AnchorsSkipped();
}

void AddIngressEndToEnd(Report& report, const std::vector<IngressRun>& runs, const char* name) {
  std::vector<double> latencies;
  std::vector<double> host_s;
  std::vector<double> outage;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  double offered_s = 0;
  for (const IngressRun& run : runs) {
    latencies.insert(latencies.end(), run.latencies_ms.begin(), run.latencies_ms.end());
    host_s.push_back(run.host_s);
    outage.push_back(run.outage_ms);
    attempted += run.attempted;
    committed += run.committed;
    failed += run.Failed();
    offered_s += run.offered_s;
  }
  report.attempted += attempted;
  report.failed += failed;
  const double tail_p = TailPercentile(latencies.size());
  const size_t samples = latencies.size();
  report.Add("p50_ms", Percentile(latencies, 50), "ms");
  report.Add("tail_ms", Percentile(latencies, tail_p), "ms");
  report.Add("goodput_rps", static_cast<double>(committed) / offered_s, "1/s");
  const double attempts = static_cast<double>(std::max<uint64_t>(attempted, 1));
  report.Add("served_share", 1.0 - static_cast<double>(failed) / attempts, "ratio");
  report.Add("host_s", Median(host_s), "s");
  report.Add("outage_ms", Median(outage), "ms");
  std::printf("info %s runs=%zu tail=p%.1f samples=%zu attempted=%llu committed=%llu "
              "failed=%llu\n",
              name, runs.size(), tail_p, samples, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(committed), static_cast<unsigned long long>(failed));
}

void AddIngressLayers(Report& report, const IngressRun& traced, double run_seconds) {
  const double vertices = static_cast<double>(traced.ordered);
  std::vector<double> submit = traced.submit_us;
  std::vector<double> lags = traced.lags_ms;
  const double kreq = static_cast<double>(traced.committed) / 1e3;
  AddFamilyMetrics(report, traced.counters, vertices);
  report.Add("consensus.rounds_per_s",
             static_cast<double>(traced.last_committed_round) / run_seconds, "rounds/s");
  report.Add("consensus.empty_vertex_share",
             static_cast<double>(traced.empty_ordered) / vertices, "ratio");
  report.Add("consensus.anchor_skip_share",
             static_cast<double>(traced.anchors_skipped) /
                 static_cast<double>(traced.anchors_committed + traced.anchors_skipped),
             "ratio");
  report.Add("ingress.submit_us_p50", Percentile(submit, 50), "us");
  report.Add("ingress.submit_us_p99", Percentile(submit, 99), "us");
  report.Add("ingress.reqs_per_batch",
             static_cast<double>(traced.ingress.txs_proposed) /
                 static_cast<double>(std::max<uint64_t>(traced.ingress.batches_proposed, 1)),
             "reqs/batch");
  report.Add("ingress.reject_share",
             static_cast<double>(traced.ingress.rejected_rate + traced.ingress.rejected_capacity) /
                 static_cast<double>(std::max<uint64_t>(traced.ingress.received, 1)),
             "ratio");
  report.Add("ingress.dedup_hits", static_cast<double>(traced.ingress.duplicates), "count");
  report.Add("ingress.loadgen_lag_ms_p99", Percentile(lags, 99), "ms");
  report.Add("sync.fetch_requests", static_cast<double>(traced.sync.requests_sent), "count");
  report.Add("mem.allocs_per_vertex", static_cast<double>(traced.allocs) / vertices,
             "allocs/vertex");
  report.Add("proc.cpu_ms_per_kreq",
             (traced.host_after.cpu_s - traced.host_before.cpu_s) * 1e3 / kreq, "ms/kreq");
  report.Add("proc.ctx_switches_per_kreq",
             static_cast<double>(traced.host_after.ctx_switches -
                                 traced.host_before.ctx_switches) /
                 kreq,
             "count/kreq");
  report.Add("host.steal_share", StealShare(traced.host_before, traced.host_after), "ratio");
}

}  // namespace perfbench
}  // namespace clandag
