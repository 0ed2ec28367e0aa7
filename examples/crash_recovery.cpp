// Crash-recovery demo: a simulated 4-node cluster where one node fail-stops
// mid-run, restarts from its write-ahead log, replays the committed prefix,
// fetches the rounds it missed from its peers, and rejoins the protocol.
// Prints the recovery and state-sync counters (core/metrics).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/crash_recovery

#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/metrics.h"

using namespace clandag;

namespace {

constexpr uint32_t kNodes = 4;
constexpr NodeId kVictim = 3;

// WALs land under --dir <path> when given, else a scratch directory under
// $TMPDIR (or /tmp) — never the working directory, which is typically the
// repo checkout.
std::string WalDir(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--dir") == 0) {
      return argv[i + 1];
    }
  }
  return TempDir() + "/clandag_crash_recovery";
}

}  // namespace

int main(int argc, char** argv) {
  Cluster::Options options;
  options.num_nodes = kNodes;
  options.wal_dir = WalDir(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(options.wal_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create WAL directory %s: %s\n", options.wal_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // Each node's ordered stream, one log per life: a restarted node's log
  // holds only what it ordered live after its restart.
  using OrderLog = std::vector<std::pair<Round, NodeId>>;
  std::vector<std::deque<OrderLog>> lives(kNodes);
  options.setup = [&lives](NodeId id, Cluster::NodeSetup& setup) {
    setup.options.consensus.round_timeout = Millis(400);
    setup.options.consensus.gc_depth = 16;
    OrderLog* log = &lives[id].emplace_back();
    setup.callbacks.on_ordered = [log](const Vertex& v) { log->push_back({v.round, v.source}); };
    for (uint64_t i = 0; i < 400; ++i) {
      setup.preload.emplace_back(id * 10000 + i, Bytes(128, 0x5a));
    }
  };
  Cluster cluster(std::move(options));
  cluster.Start();
  Scheduler& scheduler = cluster.scheduler();

  // Phase 1: healthy cluster.
  scheduler.RunUntil(Seconds(3));
  const int64_t committed_at_crash = cluster.app(kVictim).consensus().LastCommittedRound();
  std::printf("t=3s  crash node %u (committed round %lld)\n", kVictim,
              static_cast<long long>(committed_at_crash));
  cluster.Crash(kVictim);

  // Phase 2: the survivors keep committing; the victim's timers drain while
  // its traffic is dropped. (The crashed AppNode object must outlive its
  // scheduled callbacks, so it is kept as a zombie, not destroyed.)
  scheduler.RunUntil(Seconds(7));

  // Phase 3: restart from the WAL — a fresh AppNode over the same
  // identity and log file.
  std::printf("t=7s  restart node %u from %s\n", kVictim, cluster.WalPath(kVictim).c_str());
  AppNode& restarted = cluster.Restart(kVictim);
  const OrderLog& ordered_after_restart = lives[kVictim].back();
  const RecoveryStats& rec = restarted.recovery_stats();
  std::printf("      replayed %llu WAL records: %zu committed + %zu trailing vertices, "
              "resume round %llu (%.1f ms host time)\n",
              static_cast<unsigned long long>(rec.wal_records), rec.restored_vertices,
              rec.trailing_vertices, static_cast<unsigned long long>(rec.resume_round),
              static_cast<double>(rec.duration_us) / 1000.0);

  scheduler.RunUntil(Seconds(12));

  const int64_t victim_committed = restarted.consensus().LastCommittedRound();
  const int64_t peer_committed = cluster.app(0).consensus().LastCommittedRound();
  std::printf("t=12s node %u committed round %lld (peer at %lld)\n", kVictim,
              static_cast<long long>(victim_committed), static_cast<long long>(peer_committed));

  SyncStats sync;
  for (NodeId id = 0; id < kNodes; ++id) {
    sync += cluster.app(id).sync_stats();
  }
  std::printf("state sync: %s\n", FormatSyncStats(sync).c_str());

  // The restarted node's post-restart order must be a continuation of the
  // healthy nodes' order: peer order == (replayed prefix) + (live stream).
  const OrderLog& reference = lives[0].front();
  const size_t prefix = rec.restored_vertices;
  bool ok = victim_committed + 4 >= peer_committed && sync.vertices_fetched > 0;
  for (size_t i = 0; i < ordered_after_restart.size(); ++i) {
    if (prefix + i >= reference.size() ||
        !(reference[prefix + i] == ordered_after_restart[i])) {
      ok = (prefix + i >= reference.size());  // Reference may simply be shorter.
      break;
    }
  }
  std::printf("recovery %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
