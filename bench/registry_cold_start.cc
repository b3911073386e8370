// Registry cold-start bench: what the snapshot distribution tier buys.
//
// Drives the same trace-driven workload over an N-host ModelHost cluster
// (calibrated from a full-fidelity Fireworks probe) while sweeping the
// distribution tier's features cumulatively:
//
//   registry-only   monolithic images, no cache, no peers, no working set —
//                   every cold host pulls the full image from the registry
//   +cache          per-host byte-budgeted LRU chunk cache
//   +peer           peer-to-peer chunk fetch before the registry fallback
//   +layered        shared base runtime layer + small per-app post-JIT delta
//   +working-set    REAP-style working-set prefetch on first invocation
//
// The sweep uses the round-robin scheduler so every app goes cold on many
// hosts and the fetch path dominates; a final row re-runs the full
// configuration under the snapshot-locality scheduler to show placement
// recovering most of what the fetch tier had to pay for.
//
// The bench asserts its own acceptance criterion: the full configuration
// (+working-set) must beat registry-only on both mean latency and bytes
// pulled from the registry, and same-seed runs must be bit-identical.
//
// Flags:
//   --hosts=N        simulated hosts                     (default 8)
//   --invocations=M  total requests                      (default 4000)
//   --rate=R         mean cluster arrival rate, req/s    (default 1000)
//   --apps=K         Zipf-distributed app population     (default 24)
//   --seed=S         simulation + load seed              (default 42)
//   --smoke          reduced scale for CI
//   --no-selfcheck   skip the determinism re-run
//   --json=FILE      write machine-readable results
//   --report=FILE    write one fwbench/1 report (scripts/bench_trend.py input)
#include <chrono>  // host wall time for the report
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/cluster/calibrate.h"
#include "src/cluster/cluster.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/workloads/faasdom.h"
#include "src/workloads/loadgen.h"

namespace {

using fwcluster::Cluster;
using fwcluster::DistributionConfig;
using fwcluster::DistributionStats;
using fwcluster::HostCalibration;
using fwcluster::ModelHost;
using fwcluster::SchedulerPolicy;

struct Options {
  Options() {}
  int hosts = 8;
  uint64_t invocations = 4000;
  double rate = 1000.0;
  int apps = 24;
  uint64_t seed = 42;
  bool selfcheck = true;
  std::string json_path;
  std::string report_path;
};

struct Variant {
  std::string label;
  SchedulerPolicy policy = SchedulerPolicy::kRoundRobin;
  DistributionConfig dist;
};

struct RunResult {
  RunResult() {}
  std::string label;
  Cluster::Rollup rollup;
  uint64_t digest = 0;
  double sim_seconds = 0.0;
};

// The cumulative feature sweep. Each step enables one more piece of the
// distribution tier on top of the previous step.
std::vector<Variant> MakeVariants() {
  DistributionConfig base;
  base.enabled = true;
  base.layered = false;
  base.cache_budget_bytes = 0;
  base.peer_fetch = false;
  base.working_set_restore = false;

  std::vector<Variant> variants;
  Variant v;
  v.label = "registry-only";
  v.dist = base;
  variants.push_back(v);

  v.label = "+cache";
  v.dist.cache_budget_bytes = 512ull << 20;
  variants.push_back(v);

  v.label = "+peer";
  v.dist.peer_fetch = true;
  variants.push_back(v);

  v.label = "+layered";
  v.dist.layered = true;
  variants.push_back(v);

  v.label = "+working-set";
  v.dist.working_set_restore = true;
  variants.push_back(v);

  // Same full configuration, but let the scheduler chase chunk placement.
  v.label = "+locality-sched";
  v.policy = SchedulerPolicy::kSnapshotLocality;
  variants.push_back(v);
  return variants;
}

RunResult RunVariant(const Variant& variant, const HostCalibration& calibration,
                     const Options& opt) {
  fwsim::Simulation sim(opt.seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  hosts.reserve(opt.hosts);
  ModelHost::Config host_config;
  host_config.calibration = calibration;
  for (int i = 0; i < opt.hosts; ++i) {
    hosts.push_back(std::make_unique<ModelHost>(sim, i, host_config));
  }
  Cluster::Config config;
  config.policy = variant.policy;
  config.distribution = variant.dist;
  Cluster cluster(sim, std::move(hosts), config);

  const std::vector<std::string> app_names = fwbench::AppNames(opt.apps);
  for (const std::string& name : app_names) {
    fwlang::FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    fn.name = name;
    const fwbase::Status s = fwsim::RunSync(sim, cluster.InstallAll(fn));
    FW_CHECK_MSG(s.ok(), s.ToString().c_str());
  }

  fwwork::LoadGenConfig lg;
  lg.arrival = fwwork::ArrivalProcess::kPoisson;
  lg.rate_per_sec = opt.rate;
  lg.num_apps = opt.apps;
  lg.seed = opt.seed;  // Same seed for every variant: identical workload.
  sim.Spawn(fwbench::DriveLoad(sim, cluster, lg, opt.invocations, app_names));
  cluster.Drain(opt.invocations);

  RunResult r;
  r.label = variant.label;
  r.rollup = cluster.ComputeRollup();
  r.digest = cluster.OutcomeDigest();
  r.sim_seconds = sim.Now().seconds();
  return r;
}

std::vector<std::string> ResultRow(const RunResult& r) {
  const auto& s = r.rollup.latency_ms;
  const DistributionStats& d = r.rollup.distribution;
  return {r.label,
          fwbase::StrFormat("%" PRIu64, r.rollup.completed),
          fwbase::StrFormat("%.2f", s.mean()),
          fwbase::StrFormat("%.2f", s.Percentile(99.0)),
          fwbase::StrFormat("%" PRIu64, d.cold_fetches),
          fwbench::MiB(static_cast<double>(d.bytes_from_registry)),
          fwbench::MiB(static_cast<double>(d.bytes_from_peer)),
          fwbench::MiB(static_cast<double>(d.bytes_from_cache)),
          fwbase::StrFormat("%" PRIu64, d.warm_restores),
          fwbase::StrFormat("%" PRIu64, d.demand_restores)};
}

void WriteJson(const std::string& path, const Options& opt,
               const std::vector<RunResult>& results, bool selfcheck_ran,
               bool selfcheck_identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"config\": {\"hosts\": %d, \"invocations\": %" PRIu64
               ", \"rate_per_sec\": %.1f, \"apps\": %d, \"seed\": %" PRIu64 "},\n",
               opt.hosts, opt.invocations, opt.rate, opt.apps, opt.seed);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const auto& s = r.rollup.latency_ms;
    const DistributionStats& d = r.rollup.distribution;
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"completed\": %" PRIu64 ", \"mean_ms\": %.4f, "
                 "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"cold_fetches\": %" PRIu64
                 ", \"coalesced\": %" PRIu64 ", \"bytes_from_registry\": %" PRIu64
                 ", \"bytes_from_peer\": %" PRIu64 ", \"bytes_from_cache\": %" PRIu64
                 ", \"warm_restores\": %" PRIu64 ", \"demand_restores\": %" PRIu64
                 ", \"cache_evictions\": %" PRIu64 ", \"sim_seconds\": %.3f, "
                 "\"digest\": \"%016" PRIx64 "\"}%s\n",
                 r.label.c_str(), r.rollup.completed, s.mean(), s.Percentile(50.0),
                 s.Percentile(99.0), d.cold_fetches, d.coalesced, d.bytes_from_registry,
                 d.bytes_from_peer, d.bytes_from_cache, d.warm_restores, d.demand_restores,
                 d.cache_evictions, r.sim_seconds, r.digest,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"selfcheck\": {\"ran\": %s, \"bit_identical\": %s}\n",
               selfcheck_ran ? "true" : "false", selfcheck_identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

uint64_t ParseU64(const char* s) { return static_cast<uint64_t>(std::strtoull(s, nullptr, 10)); }

Options ParseFlags(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--hosts=", 8) == 0) {
      opt.hosts = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--invocations=", 14) == 0) {
      opt.invocations = ParseU64(arg + 14);
    } else if (std::strncmp(arg, "--rate=", 7) == 0) {
      opt.rate = std::atof(arg + 7);
    } else if (std::strncmp(arg, "--apps=", 7) == 0) {
      opt.apps = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt.seed = ParseU64(arg + 7);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      opt.hosts = 4;
      opt.invocations = 600;
      opt.rate = 300.0;
      opt.apps = 8;
    } else if (std::strcmp(arg, "--no-selfcheck") == 0) {
      opt.selfcheck = false;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opt.json_path = arg + 7;
      if (opt.json_path.empty()) {
        std::fprintf(stderr, "empty --json= path\n");
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--report=", 9) == 0) {
      opt.report_path = arg + 9;
      if (opt.report_path.empty()) {
        std::fprintf(stderr, "empty --report= path\n");
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      std::exit(2);
    }
  }
  if (opt.hosts < 2 || opt.invocations < 1 || opt.apps < 1 || opt.rate <= 0.0) {
    std::fprintf(stderr, "bad flag values (need >= 2 hosts for peer fetch)\n");
    std::exit(2);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseFlags(argc, argv);

  std::printf("registry_cold_start: %d hosts, %" PRIu64 " invocations, %.0f req/s, "
              "%d apps, seed %" PRIu64 "\n\n",
              opt.hosts, opt.invocations, opt.rate, opt.apps, opt.seed);

  // One full-fidelity calibration probe shared by every variant: the sweep
  // varies only the distribution tier, never the host model.
  fwcluster::CalibrationOptions copt;
  copt.seed = opt.seed;
  const fwlang::FunctionSource probe_fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  const HostCalibration cal = fwcluster::CalibratePlatform(
      [](fwcore::HostEnv& env) {
        return fwbench::MakePlatform(fwbench::PlatformKind::kFireworks, env);
      },
      probe_fn, copt);

  const auto wall_start =  // host time; report-only
      std::chrono::steady_clock::now();  // fwlint:allow(determinism)
  const std::vector<Variant> variants = MakeVariants();
  std::vector<RunResult> results;
  for (const Variant& v : variants) {
    results.push_back(RunVariant(v, cal, opt));
  }
  const double wall_seconds = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - wall_start).count();  // fwlint:allow(determinism)

  fwbench::Table table(
      fwbase::StrFormat("cold-host snapshot distribution (%" PRIu64 " invocations, %d hosts, "
                        "%d apps)", opt.invocations, opt.hosts, opt.apps),
      {"configuration", "completed", "mean ms", "P99 ms", "cold pulls", "registry",
       "peer", "cache", "ws prefetch", "demand"});
  for (const RunResult& r : results) {
    table.AddRow(ResultRow(r));
  }
  table.Print();
  std::printf("\n");

  const RunResult& baseline = results[0];       // registry-only
  const RunResult& full = results[4];           // +working-set (same scheduler)
  const double latency_speedup =
      full.rollup.latency_ms.mean() > 0.0
          ? baseline.rollup.latency_ms.mean() / full.rollup.latency_ms.mean()
          : 0.0;
  const uint64_t baseline_pulled = baseline.rollup.distribution.bytes_from_registry;
  const uint64_t full_pulled = full.rollup.distribution.bytes_from_registry;
  std::printf("layered + working-set vs full-image pull: %.2fx mean latency, "
              "%s -> %s registry bytes\n",
              latency_speedup, fwbench::MiB(static_cast<double>(baseline_pulled)).c_str(),
              fwbench::MiB(static_cast<double>(full_pulled)).c_str());

  // Acceptance criterion (ISSUE 7): the layered + working-set configuration
  // must reduce both first-invocation latency and bytes transferred relative
  // to pulling the full image from the registry every time.
  bool ok = true;
  if (full.rollup.latency_ms.mean() >= baseline.rollup.latency_ms.mean()) {
    std::fprintf(stderr, "FAIL: +working-set mean latency (%.3f ms) does not beat "
                 "registry-only (%.3f ms)\n",
                 full.rollup.latency_ms.mean(), baseline.rollup.latency_ms.mean());
    ok = false;
  }
  if (full_pulled >= baseline_pulled) {
    std::fprintf(stderr, "FAIL: +working-set registry bytes (%" PRIu64 ") do not beat "
                 "registry-only (%" PRIu64 ")\n", full_pulled, baseline_pulled);
    ok = false;
  }
  if (full.rollup.completed < baseline.rollup.completed) {
    std::fprintf(stderr, "FAIL: +working-set completed fewer requests\n");
    ok = false;
  }

  // Determinism self-check: the full configuration again, same seed.
  bool identical = false;
  if (opt.selfcheck) {
    const RunResult again = RunVariant(variants[4], cal, opt);
    identical = again.digest == full.digest;
    std::printf("determinism: two seed-%" PRIu64 " runs of %s are %s (digest %016" PRIx64
                ")\n", opt.seed, full.label.c_str(),
                identical ? "bit-identical" : "DIFFERENT", full.digest);
    if (!identical) {
      std::fprintf(stderr, "determinism self-check FAILED\n");
      ok = false;
    }
  }

  if (!opt.json_path.empty()) {
    WriteJson(opt.json_path, opt, results, opt.selfcheck, identical);
  }

  if (!opt.report_path.empty()) {
    // The full sweep configuration (+working-set, round-robin) gates the
    // trajectory; the locality-scheduler row rides along in --json only.
    const auto& lat = full.rollup.latency_ms;
    const DistributionStats& d = full.rollup.distribution;
    fwbench::BenchReport report("registry_cold_start");
    report.AddConfig("hosts", opt.hosts);
    report.AddConfig("invocations", opt.invocations);
    report.AddConfig("rate_per_sec", opt.rate);
    report.AddConfig("apps", opt.apps);
    report.AddConfig("seed", opt.seed);
    report.AddConfig("variant", full.label);
    report.AddGuardedMetric("mean_ms", lat.mean(), "lower");
    report.AddGuardedMetric("p99_ms", lat.Percentile(99.0), "lower");
    report.AddGuardedMetric("completed", static_cast<double>(full.rollup.completed),
                            "higher");
    report.AddGuardedMetric("registry_mib",
                            static_cast<double>(d.bytes_from_registry) / (1024.0 * 1024.0),
                            "lower");
    report.AddGuardedMetric("latency_speedup_vs_full_pull", latency_speedup, "higher");
    report.AddMetric("cold_fetches", static_cast<double>(d.cold_fetches));
    report.AddMetric("coalesced", static_cast<double>(d.coalesced));
    report.AddMetric("peer_mib", static_cast<double>(d.bytes_from_peer) / (1024.0 * 1024.0));
    report.AddMetric("cache_mib", static_cast<double>(d.bytes_from_cache) / (1024.0 * 1024.0));
    report.AddMetric("warm_restores", static_cast<double>(d.warm_restores));
    report.AddMetric("sim_seconds", full.sim_seconds);
    report.AddMetric("wall_seconds", wall_seconds);  // host-dependent: never guarded
    report.SetDigest(full.digest);
    report.WriteTo(opt.report_path);
  }
  return ok ? 0 : 1;
}
