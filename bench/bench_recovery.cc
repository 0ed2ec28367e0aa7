// Recovery bench: restart cost with and without checkpointed snapshots.
//
// For each (mode, history_rounds) point a 4-node simulated cluster runs until
// the target round, one node crashes and restarts, and the row records how
// much WAL the restart replayed and how long recovery took (host wall clock).
// "wal" mode replays the whole history; "snapshot" mode (checkpoint every 8
// rounds) must replay only the suffix past the last durable snapshot, so its
// replayed-record count stays flat as history grows — that flatness is the
// property the checked-in BENCH_recovery.json baseline pins in CI
// (recovery-smoke job; tools/check_bench_regression.py keys rows on
// (mode, history_rounds) and gates on recovery_kverts_s).
//
//   ./bench_recovery [--quick] [--out BENCH_recovery.json]

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/cluster.h"

namespace clandag {
namespace bench {
namespace {

constexpr uint32_t kNodes = 4;
constexpr NodeId kVictim = 3;

struct RecoveryRow {
  std::string mode;
  Round history_rounds = 0;
  bool ok = false;
  bool rejoined = false;
  RecoveryStats stats;
  uint64_t committed_at_crash = 0;
  size_t history_positions = 0;  // Victim's ordered count at crash time.
};

RecoveryRow RunPoint(const std::string& mode, Round history_rounds) {
  RecoveryRow row;
  row.mode = mode;
  row.history_rounds = history_rounds;

  std::vector<size_t> ordered(kNodes, 0);
  Cluster::Options options;
  options.num_nodes = kNodes;
  options.wal_dir = TempDir();
  options.setup = [&ordered, &mode](NodeId id, Cluster::NodeSetup& setup) {
    setup.options.consensus.round_timeout = Millis(300);
    // Wide horizon: the bench measures replay cost, not snapshot catch-up, so
    // the restart gap must stay within the fetchable window in both modes.
    setup.options.consensus.gc_depth = 64;
    setup.options.snapshot_interval_rounds = mode == "snapshot" ? 8 : 0;
    setup.callbacks.on_ordered = [&ordered, id](const Vertex&) { ++ordered[id]; };
    for (uint64_t i = 0; i < 300; ++i) {
      setup.preload.emplace_back(id * 100000 + i, Bytes(64, 0x5a));
    }
  };
  Cluster cluster(std::move(options));
  Scheduler& scheduler = cluster.scheduler();
  cluster.Start();

  // Grow the history to the target round (capped so a stall cannot hang CI).
  TimeMicros now = 0;
  const TimeMicros cap = Seconds(120);
  while (now < cap &&
         cluster.app(0).consensus().LastCommittedRound() <
             static_cast<int64_t>(history_rounds)) {
    now += Millis(500);
    scheduler.RunUntil(now);
  }
  if (cluster.app(0).consensus().LastCommittedRound() <
      static_cast<int64_t>(history_rounds)) {
    return row;  // ok stays false: the cluster never reached the target.
  }

  row.committed_at_crash =
      static_cast<uint64_t>(cluster.app(kVictim).consensus().LastCommittedRound());
  row.history_positions = ordered[kVictim];

  // Crash the victim, let a short gap pass, restart, and read the stats.
  cluster.Crash(kVictim);
  now += Millis(200);
  scheduler.RunUntil(now);
  AppNode& restarted = cluster.Restart(kVictim);
  row.stats = restarted.recovery_stats();

  now += Seconds(3);
  scheduler.RunUntil(now);
  row.rejoined = restarted.consensus().LastCommittedRound() + 8 >=
                 cluster.app(0).consensus().LastCommittedRound();
  row.ok = row.stats.recovered && row.rejoined &&
           (mode != "snapshot" || row.stats.from_snapshot);
  return row;
}

// Vertices brought back per second of recovery wall time: snapshot frontier
// plus the replayed WAL suffix, over the restart's replay duration.
double RecoveryKvertsPerSec(const RecoveryRow& row) {
  const double verts = static_cast<double>(row.stats.snapshot_vertices +
                                           row.stats.restored_vertices);
  const double us = static_cast<double>(row.stats.duration_us > 0
                                            ? row.stats.duration_us
                                            : 1);
  return verts / us * 1000.0;  // verts/us * 1e6 / 1e3 = kverts/s.
}

}  // namespace
}  // namespace bench
}  // namespace clandag

int main(int argc, char** argv) {
  using namespace clandag;
  using namespace clandag::bench;

  const bool quick = QuickMode(argc, argv);
  const char* out_path = ArgValue(argc, argv, "--out");
  const std::vector<Round> histories =
      quick ? std::vector<Round>{150, 300} : std::vector<Round>{200, 400, 800};

  std::printf("== Recovery: restart cost vs history length ==\n");
  std::printf("%-10s %8s %6s %12s %12s %10s %10s %10s %10s\n", "mode", "rounds",
              "ok", "recovery ms", "kverts/s", "wal recs", "restored", "snapverts",
              "rejoined");

  std::vector<RecoveryRow> rows;
  bool all_ok = true;
  for (const char* mode : {"wal", "snapshot"}) {
    for (Round history : histories) {
      RecoveryRow row = RunPoint(mode, history);
      std::printf("%-10s %8llu %6s %12.2f %12.1f %10llu %10zu %10zu %10s\n",
                  row.mode.c_str(), static_cast<unsigned long long>(row.history_rounds),
                  row.ok ? "yes" : "NO",
                  static_cast<double>(row.stats.duration_us) / 1000.0,
                  RecoveryKvertsPerSec(row),
                  static_cast<unsigned long long>(row.stats.wal_records),
                  row.stats.restored_vertices, row.stats.snapshot_vertices,
                  row.rejoined ? "yes" : "NO");
      std::fflush(stdout);
      all_ok = all_ok && row.ok;
      rows.push_back(std::move(row));
    }
  }

  // The headline property: snapshot-mode replay must not scale with history.
  // Compare the longest and shortest snapshot rows' replayed-record counts.
  const RecoveryRow* snap_short = nullptr;
  const RecoveryRow* snap_long = nullptr;
  for (const RecoveryRow& row : rows) {
    if (row.mode != "snapshot" || !row.ok) continue;
    if (snap_short == nullptr || row.history_rounds < snap_short->history_rounds)
      snap_short = &row;
    if (snap_long == nullptr || row.history_rounds > snap_long->history_rounds)
      snap_long = &row;
  }
  bool bounded = true;
  if (snap_short != nullptr && snap_long != nullptr && snap_long != snap_short) {
    // Generous 4x band: replay depends on crash phase within the checkpoint
    // interval, not on total history, so it must stay the same order.
    bounded = snap_long->stats.wal_records <= 4 * snap_short->stats.wal_records + 64;
    std::printf("snapshot replay bounded: %s (%llu records @ %llu rounds vs "
                "%llu @ %llu)\n",
                bounded ? "yes" : "NO",
                static_cast<unsigned long long>(snap_long->stats.wal_records),
                static_cast<unsigned long long>(snap_long->history_rounds),
                static_cast<unsigned long long>(snap_short->stats.wal_records),
                static_cast<unsigned long long>(snap_short->history_rounds));
  }

  if (out_path != nullptr) {
    std::vector<std::string> json_rows;
    for (const RecoveryRow& row : rows) {
      JsonObject obj;
      obj.Field("mode", row.mode)
          .Field("history_rounds", static_cast<uint64_t>(row.history_rounds))
          .Field("ok", row.ok)
          .Field("recovery_ms", static_cast<double>(row.stats.duration_us) / 1000.0)
          .Field("recovery_kverts_s", RecoveryKvertsPerSec(row))
          .Field("wal_records", row.stats.wal_records)
          .Field("restored_vertices", static_cast<uint64_t>(row.stats.restored_vertices))
          .Field("snapshot_vertices", static_cast<uint64_t>(row.stats.snapshot_vertices))
          .Field("trailing_vertices", static_cast<uint64_t>(row.stats.trailing_vertices))
          .Field("from_snapshot", row.stats.from_snapshot)
          .Field("snapshot_seq", row.stats.snapshot_seq)
          .Field("order_base", row.stats.order_base)
          .Field("resume_round", static_cast<uint64_t>(row.stats.resume_round))
          .Field("committed_at_crash", row.committed_at_crash)
          .Field("history_positions", static_cast<uint64_t>(row.history_positions))
          .Field("rejoined", row.rejoined);
      json_rows.push_back(obj.Str());
    }
    if (!WriteJsonArrayFile(out_path, json_rows)) {
      return 1;
    }
  }

  return all_ok && bounded ? 0 : 1;
}
