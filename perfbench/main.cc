// perfbench: the repository's benchmark binary. run.py builds it and runs
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source <id>]
//
// It prints a stamp line (source id, build type, compiler, CPU model, nproc,
// host steal share during the run), some "info" lines, and, last, the
// result line: the end-to-end metrics with --trace 0, or the per-layer
// metrics of a separate traced run with --trace 1. Every metric of the
// chosen kind is printed on every workload; a per-layer metric a workload
// has no such layer for reads 0.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "perfbench/workloads.h"

using namespace clandag::perfbench;

namespace {

// Every per-layer metric, in report order, with its unit.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"sim.events", "count"},
        {"sim.events_per_host_s", "1/s"},
        {"sim.events_per_vertex", "events/vertex"},
    };
    for (size_t f = 0; f < kOther; ++f) {
      m.emplace_back(std::string("consensus.msgs_per_vertex.") + kFamilyNames[f], "msgs/vertex");
    }
    m.emplace_back("consensus.bytes_per_vertex", "B/vertex");
    for (size_t f = 0; f < kOther; ++f) {
      m.emplace_back(std::string("consensus.handler_us_per_vertex.") + kFamilyNames[f],
                     "us/vertex");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"consensus.rounds_per_s", "rounds/s"},
        {"consensus.empty_vertex_share", "ratio"},
        {"consensus.anchor_skip_share", "ratio"},
        {"ingress.submit_us_p50", "us"},
        {"ingress.submit_us_p99", "us"},
        {"ingress.reqs_per_batch", "reqs/batch"},
        {"ingress.reject_share", "ratio"},
        {"ingress.dedup_hits", "count"},
        {"ingress.loadgen_lag_ms_p99", "ms"},
        {"net.frames_per_vertex", "frames/vertex"},
        {"net.send_us_per_vertex", "us/vertex"},
        {"net.dropped", "count"},
        {"net.connect_ms", "ms"},
        {"sync.catchup_ms", "ms"},
        {"sync.fetch_requests", "count"},
        {"mem.allocs_per_vertex", "allocs/vertex"},
        {"proc.cpu_ms_per_kreq", "ms/kreq"},
        {"proc.ctx_switches_per_kreq", "count/kreq"},
        {"host.steal_share", "ratio"},
        {"trace.overhead_host_s", "s"},
        {"trace.overhead_p50_ms", "ms"},
        {"trace.overhead_goodput_rps", "1/s"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

const char* kEndToEnd[] = {"p50_ms",  "tail_ms",   "goodput_rps", "served_share",
                           "host_s",  "outage_ms", "peak_rss_mb", "setup_s"};

const Metric* Find(const Report& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sim_paper_n50|sim_ingress_heal_n4|tcp_ingress_n4 --seed N --seconds S "
               "--trace 0|1 [--source ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string source = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--source") == 0) {
      source = value;
    } else {
      return Usage("unknown flag");
    }
  }

  const HostSample before = ReadHost();
  Report report;
  if (args.workload == "sim_paper_n50") {
    report = RunSimPaper(args);
  } else if (args.workload == "sim_ingress_heal_n4") {
    report = RunSimIngressHeal(args);
  } else if (args.workload == "tcp_ingress_n4") {
    report = RunTcpIngress(args);
  } else {
    return Usage("unknown workload");
  }
  const HostSample after = ReadHost();
  std::printf("stamp %s\n", HostStampJson(source, StealShare(before, after)).c_str());

  Report out;
  out.correct = report.correct;
  out.attempted = report.attempted;
  out.failed = report.failed;
  if (args.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      const Metric* m = Find(report, name);
      out.Add(name, m != nullptr ? m->value : 0.0, unit);
    }
  } else {
    for (const char* name : kEndToEnd) {
      const Metric* m = Find(report, name);
      if (m == nullptr) {
        std::fprintf(stderr, "perfbench: %s did not measure %s\n", args.workload.c_str(), name);
        return 1;
      }
      out.metrics.push_back(*m);
    }
  }
  for (const Metric& m : report.metrics) {
    if (Find(out, m.name) == nullptr) {
      std::fprintf(stderr, "perfbench: %s is not a declared metric\n", m.name.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.Json().c_str());
  return 0;
}
