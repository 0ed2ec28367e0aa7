// Chaos subsystem tests: targeted FaultPlans through the full harness
// (partition-and-heal, crash/restart over WAL recovery, Byzantine mixes),
// bit-for-bit determinism of seed replay, and the oracles' ability to
// actually catch violations (an oracle that cannot fail proves nothing).

#include <gtest/gtest.h>

#include <string>

#include "fault/chaos.h"
#include "fault/fault_plan.h"
#include "fault/oracles.h"

namespace clandag {
namespace {

// 7 nodes, f = 2: a quorum-preserving split (5|2) that heals.
FaultPlan PartitionPlan() {
  FaultPlan plan;
  plan.seed = 9001;
  plan.num_nodes = 7;
  plan.horizon = Seconds(10);
  PartitionFault p;
  p.start = Seconds(2);
  p.heal = Seconds(5);
  p.side = {0, 1, 1, 0, 0, 0, 0};
  plan.partitions.push_back(p);
  return plan;
}

TEST(ChaosHarness, PartitionHealsAndCommits) {
  const ChaosReport report = RunChaosPlan(PartitionPlan(), ChaosOptions{});
  EXPECT_TRUE(report.safety_ok) << report.error;
  EXPECT_TRUE(report.liveness_ok) << report.error;
  // The split actually cut traffic, and the minority caught back up.
  EXPECT_GT(report.injected.partition_drops, 0u);
  for (int64_t committed : report.per_node_committed) {
    EXPECT_GT(committed, 0);
  }
}

TEST(ChaosHarness, CrashRestartRecoversFromWal) {
  FaultPlan plan;
  plan.seed = 9002;
  plan.num_nodes = 4;
  plan.horizon = Seconds(10);
  CrashFault c;
  c.node = 2;
  c.crash_at = Seconds(3);
  c.restart_at = Seconds(6);
  plan.crashes.push_back(c);

  const ChaosReport report = RunChaosPlan(plan, ChaosOptions{});
  EXPECT_TRUE(report.ok) << report.error;
  // The restart found a non-empty WAL: recovery composed with chaos.
  EXPECT_EQ(report.restarts_recovered, 1u);
  EXPECT_GT(report.injected.crash_drops, 0u);
}

TEST(ChaosHarness, PermanentCrashStaysWithinFaultBudget) {
  FaultPlan plan;
  plan.seed = 9003;
  plan.num_nodes = 4;
  plan.horizon = Seconds(8);
  CrashFault c;
  c.node = 3;
  c.crash_at = Seconds(2);  // No restart: permanently down (f = 1 budget).
  plan.crashes.push_back(c);

  const ChaosReport report = RunChaosPlan(plan, ChaosOptions{});
  EXPECT_TRUE(report.ok) << report.error;
  // The dead node is exempt from liveness; the survivors kept committing.
  EXPECT_GT(report.final_committed_round, 0u);
}

TEST(ChaosHarness, EquivocatorCannotBreakSafety) {
  FaultPlan plan;
  plan.seed = 9004;
  plan.num_nodes = 4;
  plan.horizon = Seconds(8);
  ByzantineAssignment b;
  b.node = 1;
  b.behaviors = {ByzantineBehavior::kEquivocateVertices};
  plan.byzantine.push_back(b);

  const ChaosReport report = RunChaosPlan(plan, ChaosOptions{});
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(ChaosHarness, SeedReplayIsDeterministic) {
  const FaultPlan plan = FaultPlan::Random(424242, 7);
  const ChaosReport a = RunChaosPlan(plan, ChaosOptions{});
  const ChaosReport b = RunChaosPlan(plan, ChaosOptions{});
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.final_committed_round, b.final_committed_round);
  EXPECT_EQ(a.honest_ordered, b.honest_ordered);
  EXPECT_EQ(a.per_node_committed, b.per_node_committed);
  EXPECT_EQ(a.per_node_round, b.per_node_round);
  EXPECT_EQ(a.injected.passed, b.injected.passed);
  EXPECT_EQ(a.injected.InjectedDrops(), b.injected.InjectedDrops());
  EXPECT_EQ(a.injected.delays, b.injected.delays);
  EXPECT_EQ(a.injected.duplicates, b.injected.duplicates);
}

TEST(ChaosHarness, RandomPlansRespectLivenessEnvelope) {
  // A couple of generated plans end-to-end (the 20-seed sweep lives in the
  // ctest `chaos` label; this is the smoke version wired into tier 1).
  for (uint64_t seed : {7u, 11u}) {
    const FaultPlan plan = FaultPlan::Random(seed, 7);
    const ChaosReport report = RunChaosPlan(plan, ChaosOptions{});
    EXPECT_TRUE(report.ok) << "seed " << seed << ": " << report.error;
  }
}

// --- Snapshot mode: checkpointing + snapshot faults through the harness ---

TEST(ChaosHarness, CheckpointedRestartBoundsReplay) {
  FaultPlan plan;
  plan.seed = 9005;
  plan.num_nodes = 4;
  plan.horizon = Seconds(10);
  CrashFault c;
  c.node = 2;
  c.crash_at = Seconds(3);
  c.restart_at = Seconds(6);
  plan.crashes.push_back(c);

  ChaosOptions options;
  options.snapshot_interval_rounds = 4;
  const ChaosReport report = RunChaosPlan(plan, options);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.restarts_recovered, 1u);
  EXPECT_GT(report.snapshots_written, 0u);
}

TEST(ChaosHarness, CrashMidInstallRetriesAndHeals) {
  FaultPlan plan;
  plan.seed = 9006;
  plan.num_nodes = 4;
  plan.horizon = Seconds(12);
  CrashFault c;
  c.node = 3;
  c.crash_at = Seconds(2);
  c.restart_at = Seconds(6);  // Long outage: returns far below the horizon.
  plan.crashes.push_back(c);
  SnapshotFault sf;
  sf.node = 3;
  sf.kind = SnapshotFaultKind::kCrashMidInstall;
  sf.at_seq = 1;
  sf.restart_delay = Millis(400);
  plan.snapshots.push_back(sf);

  ChaosOptions options;
  options.snapshot_interval_rounds = 4;
  options.gc_depth = 8;  // Deep gap: catch-up must go through a snapshot.
  const ChaosReport report = RunChaosPlan(plan, options);
  EXPECT_TRUE(report.ok) << report.error;
  // First install attempt crashed; the retry after restart landed.
  EXPECT_GE(report.snapshots_installed, 1u) << report.error;
}

TEST(ChaosHarness, SnapshotFaultSweepHoldsOracles) {
  // Generated plans with torn/corrupt checkpoints and crash-mid-install in
  // the mix (the full sweep runs under the ctest `chaos` label and in CI via
  // chaos_runner --snapshots; these are the tier-1 smoke seeds).
  for (uint64_t seed : {4u, 5u, 6u}) {
    const FaultPlan plan = FaultPlan::RandomWithSnapshots(seed, 7);
    ChaosOptions options;
    options.snapshot_interval_rounds = 8;
    options.gc_depth = 16;
    const ChaosReport report = RunChaosPlan(plan, options);
    EXPECT_TRUE(report.ok) << "seed " << seed << ": " << report.error;
    EXPECT_EQ(report.duplicate_executions, 0u) << "seed " << seed;
    EXPECT_GT(report.snapshots_written, 0u) << "seed " << seed;
  }
}

// --- Pinned outcomes: the harness wiring must not move a single event. ---

// Every outcome field of a report, flattened so one EXPECT_EQ pins them all.
std::string Outcome(const ChaosReport& r) {
  std::string s = "ok=" + std::to_string(r.ok) +
                  " committed=" + std::to_string(r.final_committed_round) + " per_node=[";
  for (size_t i = 0; i < r.per_node_committed.size(); ++i) {
    s += std::to_string(r.per_node_committed[i]) + "@" + std::to_string(r.per_node_round[i]) +
         (i + 1 < r.per_node_committed.size() ? " " : "]");
  }
  s += " ordered=" + std::to_string(r.honest_ordered) +
       " restarts=" + std::to_string(r.restarts_recovered) +
       " passed=" + std::to_string(r.injected.passed) +
       " drops=" + std::to_string(r.injected.partition_drops) + "/" +
       std::to_string(r.injected.link_drops) + "/" + std::to_string(r.injected.crash_drops) +
       " delays=" + std::to_string(r.injected.delays) +
       " dups=" + std::to_string(r.injected.duplicates) +
       " snaps=" + std::to_string(r.snapshots_written) + "/" +
       std::to_string(r.snapshots_installed) +
       " ingress=" + std::to_string(r.ingress_committed) + "/" +
       std::to_string(r.ingress_expired) + "/" + std::to_string(r.ingress_rejected) + "/" +
       std::to_string(r.ingress_duplicate_replies) +
       " dup_exec=" + std::to_string(r.duplicate_executions);
  return s;
}

// Recorded from the hand-wired harness before the cluster builder replaced
// it. A change in any field means the simulated schedule moved: a wiring
// change reordered construction, scheduling, or message handling.
TEST(ChaosHarness, PinnedOutcomesPerSeed) {
  const char* kRandom[] = {
      "ok=1 committed=389 per_node=[389@391 389@391 389@391 389@391 389@391 389@391 389@391]"
      " ordered=18998 restarts=0 passed=281616 drops=0/1594/0 delays=15251 dups=960"
      " snaps=0/0 ingress=0/0/0/0 dup_exec=0",
      "ok=1 committed=379 per_node=[379@380 379@380 379@380 379@380 379@380 379@380 379@380]"
      " ordered=18557 restarts=0 passed=274960 drops=844/0/0 delays=9557 dups=582"
      " snaps=0/0 ingress=0/0/0/0 dup_exec=0",
      "ok=1 committed=120 per_node=[120@121 120@121 30@32 120@121 120@121 120@121 120@121]"
      " ordered=3839 restarts=0 passed=60428 drops=0/1106/7544 delays=5817 dups=993"
      " snaps=0/0 ingress=0/0/0/0 dup_exec=0",
  };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(Outcome(RunChaosPlan(FaultPlan::Random(seed, 7), ChaosOptions{})),
              kRandom[seed - 1])
        << "Random(" << seed << ", 7)";
  }

  ChaosOptions snapshots;
  snapshots.snapshot_interval_rounds = 8;
  snapshots.gc_depth = 16;
  EXPECT_EQ(Outcome(RunChaosPlan(FaultPlan::RandomWithSnapshots(1, 7), snapshots)),
            "ok=1 committed=343 per_node=[343@345 343@345 343@345 343@345 343@345 343@345 343@345]"
            " ordered=16696 restarts=1 passed=249875 drops=0/1176/0 delays=16272 dups=775"
            " snaps=293/0 ingress=0/0/0/0 dup_exec=0");

  ChaosOptions ingress;
  ingress.use_ingress = true;
  const ChaosReport report = RunChaosPlan(FaultPlan::Random(5, 4), ingress);
  EXPECT_EQ(report.duplicate_executions, 0u);
  EXPECT_EQ(Outcome(report),
            "ok=1 committed=375 per_node=[375@376 375@376 375@376 375@376]"
            " ordered=5912 restarts=1 passed=46997 drops=580/0/283 delays=1328 dups=145"
            " snaps=0/0 ingress=16657/250/0/288 dup_exec=0");
}

// --- Oracle falsifiability: each check must trip on a real violation. ---

TEST(SafetyOracleTest, CatchesDivergenceAcrossBases) {
  // Node 1's log starts at global position 2 (snapshot-installed): the
  // overlap comparison must still catch a divergence inside it.
  SafetyOracle oracle(2);
  oracle.OnOrdered(0, 1, 0);
  oracle.OnOrdered(0, 1, 1);
  oracle.OnOrdered(0, 2, 0);
  oracle.ResetLog(1, {}, 2);
  oracle.OnOrdered(1, 2, 1);  // Position 2: node 0 has (2, 0).
  EXPECT_NE(oracle.Check(), "");
}

TEST(SafetyOracleTest, ConsistentSuffixLogAtBasePasses) {
  SafetyOracle oracle(2);
  oracle.OnOrdered(0, 1, 0);
  oracle.OnOrdered(0, 1, 1);
  oracle.OnOrdered(0, 2, 0);
  oracle.ResetLog(1, {}, 2);
  oracle.OnOrdered(1, 2, 0);  // Matches node 0 at position 2.
  oracle.OnOrdered(1, 2, 1);  // Past node 0's log: no overlap, no complaint.
  EXPECT_EQ(oracle.Check(), "");
}

// --- Oracle falsifiability (continued) ---

TEST(SafetyOracleTest, CatchesOrderDivergence) {
  SafetyOracle oracle(2);
  oracle.OnOrdered(0, 1, 0);
  oracle.OnOrdered(0, 1, 1);
  oracle.OnOrdered(1, 1, 0);
  oracle.OnOrdered(1, 1, 2);  // Diverges at index 1.
  EXPECT_NE(oracle.Check(), "");
}

TEST(SafetyOracleTest, CatchesDeliveryInconsistency) {
  SafetyOracle oracle(2);
  oracle.OnCompleted(0, 3, 1, Digest::Of(ToBytes("body A")));
  oracle.OnCompleted(1, 3, 1, Digest::Of(ToBytes("body B")));
  EXPECT_NE(oracle.Check(), "");
}

TEST(SafetyOracleTest, IgnoresFaultyObservers) {
  SafetyOracle oracle(2);
  oracle.SetFaulty(1, true);
  oracle.OnCompleted(0, 3, 1, Digest::Of(ToBytes("body A")));
  oracle.OnCompleted(1, 3, 1, Digest::Of(ToBytes("body B")));  // Liar's tap.
  EXPECT_EQ(oracle.Check(), "");
}

TEST(SafetyOracleTest, PrefixConsistentLogsPass) {
  SafetyOracle oracle(2);
  oracle.OnOrdered(0, 1, 0);
  oracle.OnOrdered(0, 1, 1);
  oracle.OnOrdered(0, 2, 0);
  oracle.OnOrdered(1, 1, 0);  // Shorter log, but a prefix.
  oracle.OnOrdered(1, 1, 1);
  EXPECT_EQ(oracle.Check(), "");
}

TEST(LivenessOracleTest, CatchesPostHealStall) {
  LivenessOracle oracle(2);
  oracle.OnCommit(0, 10);
  oracle.OnCommit(1, 10);
  oracle.MarkHealed();
  // No commits after healing.
  EXPECT_NE(oracle.Check(3, {0, 1}), "");
}

TEST(LivenessOracleTest, CatchesNodeLeftBehind) {
  LivenessOracle oracle(2);
  oracle.OnCommit(0, 10);
  oracle.MarkHealed();
  oracle.OnCommit(0, 20);  // Node 1 never catches up to the heal frontier.
  EXPECT_NE(oracle.Check(3, {0, 1}), "");
}

TEST(LivenessOracleTest, ProgressAfterHealPasses) {
  LivenessOracle oracle(2);
  oracle.OnCommit(0, 10);
  oracle.OnCommit(1, 9);
  oracle.MarkHealed();
  oracle.OnCommit(0, 20);
  oracle.OnCommit(1, 20);
  EXPECT_EQ(oracle.Check(3, {0, 1}), "");
}

}  // namespace
}  // namespace clandag
