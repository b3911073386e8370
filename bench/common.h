// Shared support for the benchmark binaries: platform factory, cold/warm
// measurement helpers, and plain-text table rendering that mirrors the rows
// and series the paper's tables and figures report.
#ifndef FIREWORKS_BENCH_COMMON_H_
#define FIREWORKS_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/container_platform.h"
#include "src/baselines/firecracker.h"
#include "src/baselines/isolate.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/simcore/run_sync.h"
#include "src/workloads/loadgen.h"

namespace fwcluster {
class Cluster;
}  // namespace fwcluster

namespace fwbench {

using fwcore::Duration;
using fwcore::HostEnv;
using fwcore::InvocationResult;
using fwcore::InvokeOptions;
using fwcore::ServerlessPlatform;

enum class PlatformKind {
  kOpenWhisk,
  kGvisor,
  kGvisorSnapshot,
  kFirecracker,
  kFirecrackerOsSnapshot,
  kFireworks,
  kIsolate,
};

const char* PlatformName(PlatformKind kind);
std::unique_ptr<ServerlessPlatform> MakePlatform(PlatformKind kind, HostEnv& env);

// True for platforms with no cold/warm distinction (Fireworks).
bool AlwaysWarm(PlatformKind kind);

// ---------------------------------------------------------------------------
// Flags: --trace=<file>, --faults=<spec>.
// ---------------------------------------------------------------------------

// Parses bench flags. With --trace=<file>, MeasureCold/MeasureWarm run with
// tracing enabled and accumulate each run's spans as one merged Chrome trace.
// With --faults=<spec> (fwfault::FaultPlan::Parse syntax, e.g.
// "vm_crash_on_resume=0.05,broker_drop_message=0.1"; default off), every
// measured HostEnv runs under that fault plan, exercising the recovery paths
// under the same deterministic clock the benches already use. "--faults=none"
// is byte-identical to omitting the flag.
void InitBenchmark(int argc, char** argv);
// Writes the accumulated trace (if --trace was given) and reports the path.
void FinishBenchmark();
bool TraceActive();

// Installs `fn` on a fresh host+platform and measures one cold invocation.
InvocationResult MeasureCold(PlatformKind kind, const fwlang::FunctionSource& fn,
                             const std::string& type_sig = "default");
// Installs, prewarms per the §5.1 methodology, and measures one warm
// invocation.
InvocationResult MeasureWarm(PlatformKind kind, const fwlang::FunctionSource& fn,
                             const std::string& type_sig = "default");

// ---------------------------------------------------------------------------
// Normalized bench result schema ("fwbench/1").
// ---------------------------------------------------------------------------

// One machine-readable result document per bench run:
//
//   {
//     "schema":   "fwbench/1",
//     "scenario": "cluster_scale",
//     "config":   {"hosts": 8, "policy": "snapshot-locality", ...},
//     "metrics":  {"p99_ms": 12.5, "wall_seconds": 0.8, ...},
//     "guards":   {"p99_ms": "lower", "goodput_rps": "higher"},
//     "digest":   "9f86d081884c7d65"
//   }
//
// `guards` names the metrics scripts/bench_trend.py protects against
// regression and which direction is better; unguarded metrics (host wall
// time, anything nondeterministic) are recorded for humans but never gate.
// `digest` is the run's determinism digest (e.g. Cluster::OutcomeDigest) so a
// trajectory point also witnesses that behavior was bit-identical. Keys are
// ordered maps: the rendered document is byte-stable for a given run.
class BenchReport {
 public:
  explicit BenchReport(std::string scenario);

  void AddConfig(const std::string& key, const std::string& value);
  void AddConfig(const std::string& key, const char* value);
  void AddConfig(const std::string& key, double value);
  void AddConfig(const std::string& key, uint64_t value);
  void AddConfig(const std::string& key, int value);

  // Recorded but not regression-gated.
  void AddMetric(const std::string& name, double value);
  // Gated by bench_trend.py --check; `better` is "lower" or "higher".
  void AddGuardedMetric(const std::string& name, double value, const char* better);

  void SetDigest(uint64_t digest);

  std::string ToJson() const;
  // Writes ToJson() to `path` (exits with a message on IO failure) and
  // prints where the report went.
  void WriteTo(const std::string& path) const;

 private:
  std::string scenario_;
  std::map<std::string, std::string> config_;  // value pre-rendered as JSON
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> guards_;
  std::string digest_;
};

// ---------------------------------------------------------------------------
// Table rendering.
// ---------------------------------------------------------------------------

class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  void AddSeparator();
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;  // Empty row = separator.
};

// Formats a duration in milliseconds with sensible precision.
std::string Ms(Duration d);
// Formats a ratio like "12.3x".
std::string Ratio(double r);
std::string MiB(double bytes);

// A latency-breakdown row: startup / exec / others / total.
std::vector<std::string> BreakdownRow(const std::string& label, const InvocationResult& r);
inline std::vector<std::string> BreakdownColumns() {
  return {"platform", "startup", "exec", "others", "total"};
}

// ---------------------------------------------------------------------------
// Cluster benches.
// ---------------------------------------------------------------------------

// The function names the cluster benches install: "app-000", "app-001", ...
std::vector<std::string> AppNames(int apps);
// Submits `count` requests to `cluster`, each at its load-generator arrival
// offset from the time it starts; arrival app i is `app_names[i]`.
fwsim::Co<void> DriveLoad(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                          fwwork::LoadGenConfig lg_config, uint64_t count,
                          std::vector<std::string> app_names);

}  // namespace fwbench

#endif  // FIREWORKS_BENCH_COMMON_H_
