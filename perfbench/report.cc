#include "perfbench/report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace clandag {
namespace perfbench {

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g keeps every digit; non-finite values are not valid JSON.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

HostSample ReadHost() {
  HostSample sample;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  sample.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                 static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  sample.ctx_switches = static_cast<uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream fields(line.substr(4));
    uint64_t value = 0;
    for (int i = 0; fields >> value; ++i) {
      // user nice system idle iowait irq softirq steal guest guest_nice;
      // guest time is already counted in user.
      if (i < 8) {
        sample.total += value;
      }
      if (i == 7) {
        sample.steal = value;
      }
    }
  }
  return sample;
}

double StealShare(const HostSample& before, const HostSample& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) / static_cast<double>(total);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

namespace {

std::string CpuModel() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string HostStampJson(const std::string& source_id, double steal_share) {
#ifdef PERFBENCH_BUILD_TYPE
  const char* build_type = PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  char steal[32];
  std::snprintf(steal, sizeof(steal), "%.6f", steal_share);
  return "{\"source\": \"" + Escaped(source_id) + "\", \"build_type\": \"" + build_type +
         "\", \"compiler\": \"" + Escaped(__VERSION__) + "\", \"cpu\": \"" +
         Escaped(CpuModel()) + "\", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"host.steal_share\": " + steal + "}";
}

void AddFamilyMetrics(Report& report, const FamilyCounters& counters, double vertices) {
  const double per = vertices > 0 ? 1.0 / vertices : 0.0;
  for (size_t f = 0; f < kOther; ++f) {
    report.Add(std::string("consensus.msgs_per_vertex.") + kFamilyNames[f],
               static_cast<double>(counters.msgs[f]) * per, "msgs/vertex");
  }
  report.Add("consensus.bytes_per_vertex", static_cast<double>(counters.TotalBytes()) * per,
             "B/vertex");
  for (size_t f = 0; f < kOther; ++f) {
    report.Add(std::string("consensus.handler_us_per_vertex.") + kFamilyNames[f],
               counters.handler_us[f] * per, "us/vertex");
  }
}

void AddNetMetrics(Report& report, uint64_t frames, double send_us, uint64_t dropped,
                   double connect_ms, double vertices) {
  report.Add("net.frames_per_vertex", static_cast<double>(frames) / vertices, "frames/vertex");
  report.Add("net.send_us_per_vertex", send_us / vertices, "us/vertex");
  report.Add("net.dropped", static_cast<double>(dropped), "count");
  report.Add("net.connect_ms", connect_ms, "ms");
}

double TailPercentile(size_t samples) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if ((1.0 - p / 100.0) * static_cast<double>(samples) >= 10.0) {
      return p;
    }
  }
  return 50.0;
}

}  // namespace perfbench
}  // namespace clandag
