// The benchmark's workloads. Each runs its fixed work, checks the program's
// outputs, and returns the end-to-end metrics (Args::trace == false) or the
// per-layer metrics of a separate traced run (Args::trace == true).

#ifndef CLANDAG_PERFBENCH_WORKLOADS_H_
#define CLANDAG_PERFBENCH_WORKLOADS_H_

#include "perfbench/report.h"

namespace clandag {
namespace perfbench {

Report RunSimPaper(const Args& args);
Report RunSimIngressHeal(const Args& args);
Report RunTcpIngress(const Args& args);

}  // namespace perfbench
}  // namespace clandag

#endif  // CLANDAG_PERFBENCH_WORKLOADS_H_
