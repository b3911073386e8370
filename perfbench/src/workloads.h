// The three benchmark workloads: fleet shape, host kind, app population and
// open-loop load shape, all derived from the workload name and the seed.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/lang/function_ir.h"
#include "src/workloads/loadgen.h"

namespace fwperf {

struct Workload {
  Workload() {}

  std::string name;
  // FullHost (every request runs the real restore/CoW/JIT/bus/netns path)
  // or calibrated ModelHost.
  bool full_fidelity = false;
  int initial_hosts = 0;
  // Independent sub-seeded request streams per run; simulated results are
  // pooled over them, so their spread across seeds shrinks with the count.
  int replicas = 1;
  // Requests per pass (one replica's stream).
  uint64_t invocations = 0;
  std::vector<fwlang::FunctionSource> apps;
  fwwork::LoadGenConfig load;
  // With fleet.enabled, hosts join through Config::host_factory.
  fwcluster::Cluster::Config cluster;
};

const std::vector<std::string>& WorkloadNames();

// Nullopt for an unknown name. `invocations` > 0 overrides the per-pass
// request count (the self-test uses small passes).
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t invocations);

// One-line description of the load shape, printed in the report header.
std::string DescribeLoad(const Workload& w);

}  // namespace fwperf

#endif  // PERFBENCH_SRC_WORKLOADS_H_
