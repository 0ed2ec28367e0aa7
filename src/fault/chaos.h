// Chaos harness: runs one FaultPlan over a simulated AppNode cluster and
// asserts the safety/liveness oracles.
//
// The cluster mirrors production wiring as closely as the simulator allows:
// every node is a full AppNode (consensus + mempool + execution) with a WAL,
// stacked as ByzantineRuntime? -> FaultInjectingRuntime -> SimRuntime.
// Crash events toggle SimNetwork fail-stop state; restart events build a
// fresh AppNode over the same identity and WAL, exercising the src/sync/
// recovery path under chaos. The run is bit-for-bit deterministic in the
// plan seed, so a failing seed replays exactly.
//
// Used by tests/chaos_test.cc and tools/chaos_runner.cc.

#ifndef CLANDAG_FAULT_CHAOS_H_
#define CLANDAG_FAULT_CHAOS_H_

#include <string>

#include "common/time.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"

namespace clandag {

struct ChaosOptions {
  TimeMicros round_timeout = Millis(300);
  bool use_wal = true;
  Round gc_depth = 32;
  // The run lasts until max(plan.horizon, HealTime() + post_heal_run).
  TimeMicros post_heal_run = Seconds(5);
  // Directory for per-node WAL files (empty = TempDir(): $TMPDIR, or /tmp).
  std::string wal_dir;  // lint:allow(unset-knob): a host path, like TcpConfig::host.

  // > 0 (and use_wal): every node checkpoints executed state + DAG frontier
  // each `snapshot_interval_rounds` committed rounds and compacts its WAL to
  // the checkpoint. Enables plan.snapshots faults and snapshot-assisted
  // catch-up for deep laggards.
  Round snapshot_interval_rounds = 0;

  // Ingress mode: instead of preloading each node's mempool, every node runs
  // the full ingress pipeline (admission/batching/dedup/reply routing) fed
  // by a per-node open-loop load generator with a disjoint client-id space.
  // Receipts gossip between live, unpartitioned nodes, and an additional
  // oracle asserts no client request is ever executed in two different
  // blocks (dedup end to end, including retry-after-expiry).
  bool use_ingress = false;
  double ingress_load_tps = 300.0;        // Per-node offered load.
  uint32_t ingress_clients_per_node = 2000;
  TimeMicros ingress_batch_expiry = Seconds(2);
};

struct ChaosReport {
  bool ok = false;
  bool safety_ok = false;
  bool liveness_ok = false;
  std::string error;  // First oracle violation (mentions the seed).
  uint64_t seed = 0;
  std::string plan_summary;

  Round final_committed_round = 0;
  // Per-node diagnostics: commit frontier (-1 = none) and final DAG round.
  std::vector<int64_t> per_node_committed;
  std::vector<Round> per_node_round;
  uint64_t honest_ordered = 0;     // Entries across honest total-order logs.
  uint32_t restarts_recovered = 0; // Restarts that replayed WAL state.
  FaultInjectionStats injected;

  // Snapshot mode only (snapshot_interval_rounds > 0); summed over the
  // final (live) node stacks — zombie pre-restart stacks are not counted.
  uint64_t snapshots_written = 0;
  uint64_t snapshots_installed = 0;

  // Ingress mode only (use_ingress).
  uint64_t ingress_committed = 0;  // kCommitted replies across all clients.
  uint64_t ingress_expired = 0;    // Unknown-outcome replies (then retried).
  uint64_t ingress_rejected = 0;   // Rate + capacity rejections.
  uint64_t ingress_duplicate_replies = 0;  // Retries screened by dedup.
  uint64_t duplicate_executions = 0;       // Oracle: MUST stay zero.
};

ChaosReport RunChaosPlan(const FaultPlan& plan, const ChaosOptions& options);

}  // namespace clandag

#endif  // CLANDAG_FAULT_CHAOS_H_
