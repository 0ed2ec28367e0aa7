// What one benchmark invocation reports, and the host facts it is stamped
// with. The last line a run prints is Report::Json(): the contract line
// {"correct", "attempted", "failed", "metrics"} that run.py relays.

#ifndef CLANDAG_PERFBENCH_REPORT_H_
#define CLANDAG_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/probes.h"

namespace clandag {
namespace perfbench {

// Set-up samples per run. Each workload times its set-up this many times
// before any measured run, in the same process state, and reports the median.
inline constexpr int kSetupSamples = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  // A failed correctness check: the run is incorrect and the reason goes to
  // stderr so a failing run explains itself.
  void Fail(const std::string& why);
  std::string Json() const;
};

// Cumulative process CPU time, context switches and the host's steal
// jiffies; subtract two readings to meter a phase.
struct HostSample {
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
  uint64_t steal = 0;
  uint64_t total = 0;  // All jiffies, across CPUs.
};
HostSample ReadHost();
double StealShare(const HostSample& before, const HostSample& after);
// The process's peak resident set so far. Workloads read it right after
// their fixed work, so repeats added to fill the time budget (more on a
// faster host) cannot raise it.
double PeakRssMb();

// The run's stamp as one JSON object: source id (git sha or source hash),
// build type, compiler, CPU model, nproc and the host's steal share.
std::string HostStampJson(const std::string& source_id, double steal_share);

// Adds every per-family metric (messages, bytes and handler time per
// ordered vertex). `vertices` is the denominator.
void AddFamilyMetrics(Report& report, const FamilyCounters& counters, double vertices);

// Adds the transport metrics: frames the network carried and time spent in
// the nodes' send calls, per ordered vertex, messages the network dropped,
// and the time the mesh took to connect (0 on the simulator).
void AddNetMetrics(Report& report, uint64_t frames, double send_us, uint64_t dropped,
                   double connect_ms, double vertices);

// The tail percentile: p99, or the highest lower one of p95/p90/p75 that
// still has at least ten samples beyond it.
double TailPercentile(size_t samples);

}  // namespace perfbench
}  // namespace clandag

#endif  // CLANDAG_PERFBENCH_REPORT_H_
