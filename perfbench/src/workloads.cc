#include "perfbench/src/workloads.h"

#include <utility>

#include "src/base/strings.h"
#include "src/workloads/faasdom.h"

namespace fwperf {

namespace {

// `count` apps named app-NNN, all the calibrated Node.js netlatency function
// (ModelHost replays one calibration, so only the name and popularity vary).
std::vector<fwlang::FunctionSource> ModelApps(int count) {
  std::vector<fwlang::FunctionSource> apps;
  for (int i = 0; i < count; ++i) {
    fwlang::FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("app-%03d", i);
    apps.push_back(std::move(fn));
  }
  return apps;
}

// Front end, scheduler and event loop: a large static fleet under bursty
// load, the fleet size at which the default snapshot-locality policy
// degrades. No distribution tier, so the snapshot fetch path is idle.
Workload FleetSteady() {
  Workload w;
  w.full_fidelity = false;
  w.initial_hosts = 256;
  w.replicas = 6;
  w.invocations = 160000;
  w.apps = ModelApps(64);
  w.load.arrival = fwwork::ArrivalProcess::kBursty;
  w.load.rate_per_sec = 64000.0;
  w.load.num_apps = 64;
  w.load.zipf_exponent = 1.1;
  // MMPP-2 microbursts: 2x the calm rate for 2 ms on average, 10% of the
  // time. Longer or sharper bursts make a run's results hinge on a handful of
  // bursts: with 8x bursts of 100 ms, even 640k requests in one stream gave
  // an interquartile spread across seeds of 21% in simulated duration and 73%
  // in p99 latency.
  w.load.burst_multiplier = 2.0;
  w.load.mean_burst_seconds = 0.002;
  w.load.mean_calm_seconds = 0.018;
  return w;
}

// Every request through the real restore, CoW, JIT, bus and netns path: the
// only workload where per-page and per-subsystem model changes show.
Workload FullFidelity() {
  Workload w;
  w.full_fidelity = true;
  w.initial_hosts = 4;
  w.replicas = 6;
  w.invocations = 2000;
  // Zipf popularity order. Each function has a narrow latency band, so the
  // order decides which band the percentiles fall in: the hottest function
  // (matrix-mult on Python) covers the 29th..69th latency percentiles and the
  // slowest (fact on Python) the top 5.5%, so neither p50 nor p99 sits on a
  // boundary between two bands.
  const std::pair<fwwork::FaasdomBench, fwlang::Language> kByPopularity[] = {
      {fwwork::FaasdomBench::kMatrixMult, fwlang::Language::kPython},
      {fwwork::FaasdomBench::kFact, fwlang::Language::kPython},
      {fwwork::FaasdomBench::kDiskIo, fwlang::Language::kNodeJs},
      {fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs},
      {fwwork::FaasdomBench::kMatrixMult, fwlang::Language::kNodeJs},
      {fwwork::FaasdomBench::kFact, fwlang::Language::kNodeJs},
      {fwwork::FaasdomBench::kDiskIo, fwlang::Language::kPython},
      {fwwork::FaasdomBench::kNetLatency, fwlang::Language::kPython},
  };
  for (const auto& [bench, lang] : kByPopularity) {
    w.apps.push_back(fwwork::MakeFaasdom(bench, lang));
  }
  w.load.arrival = fwwork::ArrivalProcess::kPoisson;
  w.load.rate_per_sec = 250.0;
  w.load.num_apps = static_cast<int>(w.apps.size());
  w.load.zipf_exponent = 1.1;
  return w;
}

// The write side of the warm pool and chunk cache: hosts join and drain,
// clones are prepared and discarded, snapshots are pulled cold from the
// registry and from peers. Fleet planner settings follow bench/elastic_fleet.
Workload ElasticChurn() {
  Workload w;
  w.full_fidelity = false;
  w.initial_hosts = 4;
  w.replicas = 4;
  w.invocations = 300000;  // About two diurnal cycles at the mean rate.
  w.apps = ModelApps(128);
  w.load.arrival = fwwork::ArrivalProcess::kDiurnalFlash;
  w.load.rate_per_sec = 1200.0;
  w.load.num_apps = 128;
  w.load.zipf_exponent = 1.1;
  w.load.diurnal_period_seconds = 120.0;
  w.load.diurnal_amplitude = 0.8;
  w.load.flash_multiplier = 2.0;
  w.load.flash_interval_seconds = 45.0;
  w.load.flash_duration_seconds = 8.0;
  w.load.flash_offset_seconds = 30.0;
  w.cluster.num_zones = 3;
  // 16 workers per host ride out the cold-fetch storm of the first flash
  // crowd without shedding (8, the elastic_fleet setting, sheds ~0.2%).
  w.cluster.workers_per_host = 16;
  w.cluster.distribution.enabled = true;
  w.cluster.fleet.enabled = true;
  w.cluster.fleet.interval = fwbase::Duration::Millis(500);
  w.cluster.fleet.safety = 2.0;
  w.cluster.fleet.min_hosts = 4;
  w.cluster.fleet.max_hosts = 24;
  w.cluster.fleet.host_capacity = 6;
  w.cluster.fleet.rate_ewma_alpha = 0.5;
  w.cluster.fleet.scale_down_ticks = 4;
  w.cluster.fleet.max_add_per_tick = 6;
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fleet-steady", "full-fidelity",
                                                  "elastic-churn"};
  return kNames;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t invocations) {
  Workload w;
  if (name == "fleet-steady") {
    w = FleetSteady();
  } else if (name == "full-fidelity") {
    w = FullFidelity();
  } else if (name == "elastic-churn") {
    w = ElasticChurn();
  } else {
    return std::nullopt;
  }
  w.name = name;
  if (invocations > 0) {
    w.invocations = invocations;
  }
  return w;
}

std::string DescribeLoad(const Workload& w) {
  return fwbase::StrFormat(
      "%s: %d %s hosts%s, %zu apps (zipf %.1f), open-loop %s arrivals at %.0f req/s mean, "
      "%d replicas x %llu requests%s",
      w.name.c_str(), w.initial_hosts, w.full_fidelity ? "FullHost" : "ModelHost",
      w.cluster.fleet.enabled ? fwbase::StrFormat(" (autoscaled %d..%d, %d zones)", w.cluster.fleet.min_hosts,
                                    w.cluster.fleet.max_hosts, w.cluster.num_zones)
                      .c_str()
                : "",
      w.apps.size(), w.load.zipf_exponent, fwwork::ArrivalProcessName(w.load.arrival),
      w.load.rate_per_sec, w.replicas, static_cast<unsigned long long>(w.invocations),
      w.cluster.distribution.enabled ? ", distribution tier on" : "");
}

}  // namespace fwperf
