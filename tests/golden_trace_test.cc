// Golden-trace regression tests.
//
// Each test runs a fixed, seeded scenario with tracing enabled, renders the
// resulting span tree to text, and compares it line-by-line against a golden
// file checked in under tests/goldens/. Because spans record simulated time,
// the rendering is bit-stable: any diff means the timing model, the span
// structure, or the scheduling order actually changed.
//
// When a change is intentional, regenerate the goldens and review the diff
// like code:
//
//   FW_REGEN_GOLDENS=1 ctest --test-dir build -R golden_trace_test
//   git diff tests/goldens/
//
// The binary writes into the source tree via the FW_GOLDEN_DIR compile
// definition, so regeneration works from any build directory.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/cluster/host.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/obs/trace.h"
#include "src/workloads/faasdom.h"
#include "tests/test_util.h"

#ifndef FW_GOLDEN_DIR
#define FW_GOLDEN_DIR "tests/goldens"
#endif

namespace {

using fwbase::Duration;
using fwtest::RunSync;
using namespace fwbase::literals;

// ---------------------------------------------------------------------------
// Rendering + comparison machinery.
// ---------------------------------------------------------------------------

void RenderSpan(const fwobs::Tracer& tracer, const fwobs::Span& span, int depth,
                std::ostringstream& out) {
  out << std::string(static_cast<size_t>(depth) * 2, ' ');
  out << span.name();
  if (!span.category().empty()) {
    out << " [" << span.category() << "]";
  }
  out << fwbase::StrFormat(" t=%lldns dur=%lldns",
                           static_cast<long long>(span.start().nanos()),
                           static_cast<long long>(span.duration().nanos()));
  for (const auto& [key, value] : span.attributes()) {
    out << " " << key << "=" << value;
  }
  out << "\n";
  for (const fwobs::Span* child : tracer.ChildrenOf(span.id())) {
    RenderSpan(tracer, *child, depth + 1, out);
  }
}

std::string RenderTrace(const fwobs::Tracer& tracer) {
  std::ostringstream out;
  for (const fwobs::Span& span : tracer.spans()) {
    if (span.is_root()) {
      RenderSpan(tracer, span, 0, out);
    }
  }
  return out.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// Compares `actual` against the golden file, printing a readable line diff on
// mismatch. With FW_REGEN_GOLDENS=1 in the environment, rewrites the golden
// instead and passes.
void ExpectMatchesGolden(const std::string& golden_name, const std::string& actual) {
  const std::string path = std::string(FW_GOLDEN_DIR) + "/" + golden_name;
  if (std::getenv("FW_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden: " << path;
    out << actual;
    std::cout << "[regen] wrote " << path << " (" << SplitLines(actual).size()
              << " lines)\n";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << "; generate it with FW_REGEN_GOLDENS=1";
  std::ostringstream golden;
  golden << in.rdbuf();

  if (golden.str() == actual) {
    return;
  }
  const std::vector<std::string> want = SplitLines(golden.str());
  const std::vector<std::string> got = SplitLines(actual);
  std::ostringstream diff;
  diff << "trace diverges from " << path << " (golden " << want.size()
       << " lines, actual " << got.size() << " lines)\n";
  const size_t n = std::max(want.size(), got.size());
  int shown = 0;
  for (size_t i = 0; i < n && shown < 12; ++i) {
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    const std::string* g = i < got.size() ? &got[i] : nullptr;
    if (w != nullptr && g != nullptr && *w == *g) {
      continue;
    }
    diff << "  line " << (i + 1) << ":\n";
    diff << "    golden: " << (w != nullptr ? *w : "<missing>") << "\n";
    diff << "    actual: " << (g != nullptr ? *g : "<missing>") << "\n";
    ++shown;
  }
  diff << "if this change is intentional: FW_REGEN_GOLDENS=1 ctest --test-dir "
          "build -R golden_trace_test && git diff tests/goldens/";
  ADD_FAILURE() << diff.str();
}

// ---------------------------------------------------------------------------
// Scenario 1: one Fireworks host — install, cold invoke, clone prepare, warm
// invoke. The golden pins the full span tree of the paper's §3 pipeline.
// ---------------------------------------------------------------------------

TEST(GoldenTrace, FireworksInvokePipeline) {
  fwcore::HostEnv env;  // Owns a seed-42 simulation: fixed scenario, fixed seed.
  env.obs().tracer().Enable();
  fwcore::FireworksPlatform platform(env);

  fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(fn)).ok());
  ASSERT_TRUE(
      RunSync(env.sim(), platform.Invoke(fn.name, "{}", fwcore::InvokeOptions())).ok());
  ASSERT_TRUE(RunSync(env.sim(), platform.PrepareClone(fn.name)).ok());
  ASSERT_TRUE(
      RunSync(env.sim(), platform.InvokeOnClone(fn.name, "{}", fwcore::InvokeOptions()))
          .ok());

  ExpectMatchesGolden("fireworks_invoke_trace.golden",
                      RenderTrace(env.obs().tracer()));
}

// ---------------------------------------------------------------------------
// Scenario 2: a 2-host model cluster serving a fixed request schedule. The
// golden pins front-end placement (host attribute per request), retries, and
// per-invocation timing under the snapshot-locality policy.
// ---------------------------------------------------------------------------

fwsim::Co<void> DriveFixedSchedule(fwsim::Simulation& sim, fwcluster::Cluster& cluster) {
  for (int i = 0; i < 8; ++i) {
    co_await fwsim::Delay(sim, Duration::Millis(25));
    (void)cluster.Submit(i % 2 == 0 ? "app-a" : "app-b", "{}");
  }
}

TEST(GoldenTrace, ClusterFixedSchedule) {
  fwsim::Simulation sim(42);  // Fixed seed: the golden depends on it.
  const fwcluster::HostCalibration cal = fwtest::TestCalibration();

  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    fwcluster::ModelHost::Config mc;
    mc.calibration = cal;
    hosts.push_back(std::make_unique<fwcluster::ModelHost>(sim, i, mc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kSnapshotLocality;
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  cluster.obs().tracer().Enable();

  for (const char* app : {"app-a", "app-b"}) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = app;
    ASSERT_TRUE(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  sim.Spawn(DriveFixedSchedule(sim, cluster));
  cluster.Drain(8);

  std::string rendered = RenderTrace(cluster.obs().tracer());
  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  rendered += fwbase::StrFormat(
      "rollup completed=%llu failed=%llu retries=%llu warm_hits=%llu\n",
      static_cast<unsigned long long>(rollup.completed),
      static_cast<unsigned long long>(rollup.failed),
      static_cast<unsigned long long>(rollup.retries),
      static_cast<unsigned long long>(rollup.warm_hits));
  ExpectMatchesGolden("cluster_fixed_schedule_trace.golden", rendered);
}


// ---------------------------------------------------------------------------
// Scenario 3: overload control on a deliberately starved 2-host cluster —
// one worker per host, queue capacity 1, five back-to-back submits. The
// golden pins a shed request (cluster.shed span + kResourceExhausted fast
// rejection) and a hedged request (cluster.hedge span, the hedge copy's
// invoke carrying hedge=1, and the surplus copy's discard) with exactly-once
// completions.
// ---------------------------------------------------------------------------

fwsim::Co<void> DriveOverloadBurst(fwsim::Simulation& sim, fwcluster::Cluster& cluster) {
  for (int i = 0; i < 5; ++i) {
    (void)cluster.Submit("app-a", "{}");
    co_await fwsim::Delay(sim, Duration::Millis(1));
  }
}

TEST(GoldenTrace, ClusterShedAndHedge) {
  fwsim::Simulation sim(42);  // Fixed seed: the golden depends on it.
  fwcluster::HostCalibration cal;
  cal.cold_startup = Duration::Millis(1);
  cal.cold_exec = Duration::Millis(10);
  cal.warm_startup = Duration::Millis(1);
  cal.warm_exec = Duration::Millis(10);
  cal.jitter = 0.0;  // Phase timings in this golden are exact.

  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    fwcluster::ModelHost::Config mc;
    mc.vcpus = 1;
    mc.calibration = cal;
    hosts.push_back(std::make_unique<fwcluster::ModelHost>(sim, i, mc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kLeastLoaded;
  cc.workers_per_host = 1;
  cc.admission.queue_capacity = 1;
  cc.admission.default_deadline = Duration::Millis(50);
  cc.hedging = true;
  cc.hedge_min_delay = Duration::Millis(15);
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  cluster.obs().tracer().Enable();

  fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  fn.name = "app-a";
  ASSERT_TRUE(RunSync(sim, cluster.InstallAll(fn)).ok());
  sim.Spawn(DriveOverloadBurst(sim, cluster));
  cluster.Drain(5);
  sim.Run();  // Let surplus hedge copies drain through their discard path.

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  // The scenario must actually produce both behaviours the golden exists to
  // pin; if a scheduling change stops it doing so, fail loudly rather than
  // regenerating a golden that no longer covers them.
  ASSERT_GE(rollup.shed, 1u) << "scenario no longer sheds any request";
  ASSERT_GE(rollup.hedges, 1u) << "scenario no longer hedges any request";
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    ASSERT_LE(cluster.outcome(id).completions, 1u) << "request " << id;
  }

  std::string rendered = RenderTrace(cluster.obs().tracer());
  rendered += fwbase::StrFormat(
      "rollup completed=%llu failed=%llu shed=%llu hedges=%llu hedge_wins=%llu "
      "hedge_discards=%llu\n",
      static_cast<unsigned long long>(rollup.completed),
      static_cast<unsigned long long>(rollup.failed),
      static_cast<unsigned long long>(rollup.shed),
      static_cast<unsigned long long>(rollup.hedges),
      static_cast<unsigned long long>(rollup.hedge_wins),
      static_cast<unsigned long long>(rollup.hedge_discards));
  ExpectMatchesGolden("cluster_shed_hedge_trace.golden", rendered);
}

// ---------------------------------------------------------------------------
// Scenario 4: the cold-host first-invocation path through the snapshot
// distribution tier. Two model hosts, one app published on its seed host,
// round-robin placement so the other host goes cold: the golden pins the
// full fetch pipeline — manifest fetch, chunk pull (peer-served), install,
// REAP working-set prefetch — and the invocation that follows it.
// ---------------------------------------------------------------------------

fwsim::Co<void> DriveColdPair(fwsim::Simulation& sim, fwcluster::Cluster& cluster) {
  // Two spaced submits: round-robin lands one on each host, so exactly one
  // request pays the cold-host pull.
  for (int i = 0; i < 2; ++i) {
    co_await fwsim::Delay(sim, Duration::Millis(25));
    (void)cluster.Submit("app-a", "{}");
  }
}

TEST(GoldenTrace, ClusterColdHostRegistryPull) {
  fwsim::Simulation sim(42);  // Fixed seed: the golden depends on it.
  fwcluster::HostCalibration cal = fwtest::TestCalibration();
  cal.jitter = 0.0;  // Phase timings in this golden are exact.

  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    fwcluster::ModelHost::Config mc;
    mc.calibration = cal;
    hosts.push_back(std::make_unique<fwcluster::ModelHost>(sim, i, mc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kRoundRobin;
  cc.distribution.enabled = true;
  cc.distribution.base_layer_bytes = 4ull << 20;
  cc.distribution.delta_layer_bytes = 1ull << 20;
  cc.distribution.chunk_bytes = 1ull << 20;
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  cluster.obs().tracer().Enable();

  fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  fn.name = "app-a";
  ASSERT_TRUE(RunSync(sim, cluster.InstallAll(fn)).ok());
  sim.Spawn(DriveColdPair(sim, cluster));
  cluster.Drain(2);

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  // The golden exists to pin the cold-fetch pipeline; if placement changes
  // stop the scenario exercising it, fail loudly instead of regenerating a
  // golden that no longer covers it.
  ASSERT_EQ(rollup.distribution.cold_fetches, 1u)
      << "scenario no longer pulls on a cold host";
  ASSERT_GE(rollup.distribution.warm_restores, 1u)
      << "scenario no longer performs a working-set prefetch";
  ASSERT_EQ(rollup.failed, 0u);

  std::string rendered = RenderTrace(cluster.obs().tracer());
  rendered += fwbase::StrFormat(
      "rollup completed=%llu cold_fetches=%llu chunks_from_peer=%llu "
      "chunks_from_registry=%llu warm_restores=%llu\n",
      static_cast<unsigned long long>(rollup.completed),
      static_cast<unsigned long long>(rollup.distribution.cold_fetches),
      static_cast<unsigned long long>(rollup.distribution.chunks_from_peer),
      static_cast<unsigned long long>(rollup.distribution.chunks_from_registry),
      static_cast<unsigned long long>(rollup.distribution.warm_restores));
  ExpectMatchesGolden("cluster_cold_host_registry_trace.golden", rendered);
}

// ---------------------------------------------------------------------------
// Scenario 5: a cold host joining an elastic fleet (DESIGN.md §16). One
// seeded host serves steady traffic; AddHost() provisions a second, whose
// join warm-up must run the entire sequence the golden pins — registry chunk
// fetch, REAP working-set prefetch, guest reseed + clock rebase, warm-pool
// ready (fleet.admit) — strictly before its first dispatch, which is then a
// warm hit off the join-parked clone.
// ---------------------------------------------------------------------------

fwsim::Co<void> DriveJoinSchedule(fwsim::Simulation& sim, fwcluster::Cluster& cluster) {
  co_await fwsim::Delay(sim, Duration::Millis(25));
  (void)cluster.Submit("app-a", "{}");
  co_await fwsim::Delay(sim, Duration::Millis(25));
  (void)cluster.AddHost();
  // The join needs ~10 ms (manifest + chunks + prefetch + reseed + prepare);
  // by 400 ms the new host has long been admitted to the ring.
  co_await fwsim::Delay(sim, Duration::Millis(350));
  (void)cluster.Submit("app-a", "{}");
  co_await fwsim::Delay(sim, Duration::Millis(25));
  (void)cluster.Submit("app-a", "{}");
}

TEST(GoldenTrace, ClusterColdHostJoinWarmup) {
  fwsim::Simulation sim(42);  // Fixed seed: the golden depends on it.
  fwcluster::HostCalibration cal = fwtest::TestCalibration();
  cal.jitter = 0.0;  // Phase timings in this golden are exact.

  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  {
    fwcluster::ModelHost::Config mc;
    mc.calibration = cal;
    hosts.push_back(std::make_unique<fwcluster::ModelHost>(sim, 0, mc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kRoundRobin;  // Joiner gets traffic.
  cc.autoscale = false;  // Only the join itself parks clones: a quiet golden.
  cc.distribution.enabled = true;
  cc.distribution.base_layer_bytes = 4ull << 20;
  cc.distribution.delta_layer_bytes = 1ull << 20;
  cc.distribution.chunk_bytes = 1ull << 20;
  cc.host_factory = [cal](fwsim::Simulation& s, int index) {
    fwcluster::ModelHost::Config mc;
    mc.calibration = cal;
    return std::make_unique<fwcluster::ModelHost>(s, index, mc);
  };
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  cluster.obs().tracer().Enable();

  fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  fn.name = "app-a";
  ASSERT_TRUE(RunSync(sim, cluster.InstallAll(fn)).ok());
  sim.Spawn(DriveJoinSchedule(sim, cluster));
  cluster.Drain(3);
  sim.Run();

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  ASSERT_EQ(rollup.hosts_added, 1u);
  ASSERT_EQ(cluster.lifecycle(1), fwcluster::HostLifecycle::kActive);
  ASSERT_EQ(rollup.failed, 0u);
  // The golden exists to pin the join pipeline; fail loudly if the scenario
  // stops exercising it rather than regenerating a hollow golden.
  ASSERT_EQ(rollup.distribution.cold_fetches, 1u)
      << "the joining host no longer pulls through the registry";
  ASSERT_GE(rollup.distribution.warm_restores, 1u)
      << "the joining host no longer runs the working-set prefetch";
  bool joiner_served_warm = false;
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    const fwcluster::Cluster::Outcome& out = cluster.outcome(id);
    if (out.host == 1) {
      joiner_served_warm = joiner_served_warm || out.warm_hit;
    }
  }
  ASSERT_TRUE(joiner_served_warm)
      << "the joiner's warm pool was not ready before its first dispatch";

  std::string rendered = RenderTrace(cluster.obs().tracer());
  rendered += fwbase::StrFormat(
      "rollup completed=%llu hosts_added=%llu cold_fetches=%llu "
      "warm_restores=%llu warm_hits=%llu\n",
      static_cast<unsigned long long>(rollup.completed),
      static_cast<unsigned long long>(rollup.hosts_added),
      static_cast<unsigned long long>(rollup.distribution.cold_fetches),
      static_cast<unsigned long long>(rollup.distribution.warm_restores),
      static_cast<unsigned long long>(rollup.warm_hits));
  ExpectMatchesGolden("cluster_join_warmup_trace.golden", rendered);
}

}  // namespace
