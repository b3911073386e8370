// Elastic fleet control plane (DESIGN.md §16): planner/ledger/zone-placement
// units, zone-aware scheduling properties, and end-to-end host lifecycle —
// cold join (warm before admitted), drain-and-remove (zero leaks), zone
// outage survival, and capacity autoscaling of the host count.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet_manager.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/fault/fault.h"
#include "src/workloads/faasdom.h"
#include "src/workloads/loadgen.h"
#include "tests/test_util.h"

namespace fwcluster {
namespace {

using fwbase::Duration;
using fwtest::RunSync;
using fwtest::TestCalibration;

// ---------------------------------------------------------------------------
// FleetPlanner: Little's-law host-count targets.
// ---------------------------------------------------------------------------

FleetConfig PlannerConfig() {
  FleetConfig fc;
  fc.enabled = true;
  fc.safety = 1.3;
  fc.min_hosts = 1;
  fc.max_hosts = 8;
  fc.host_capacity = 8;
  fc.scale_down_ticks = 3;
  fc.max_add_per_tick = 2;
  return fc;
}

TEST(FleetPlannerTest, DesiredFollowsLittlesLawAndClamps) {
  FleetPlanner planner(PlannerConfig(), /*default_host_capacity=*/32);
  // L = 100 * 0.2 * 1.3 = 26 concurrent; 8 per host -> ceil(26/8) = 4.
  EXPECT_EQ(planner.Desired(100.0, 0.2), 4);
  // Idle clamps to min_hosts, a flood clamps to max_hosts.
  EXPECT_EQ(planner.Desired(0.0, 0.2), 1);
  EXPECT_EQ(planner.Desired(1e6, 1.0), 8);
  // Negative inputs (start-up EWMA transients) behave like zero.
  EXPECT_EQ(planner.Desired(-5.0, 0.2), 1);
  // host_capacity <= 0 falls back to the provided default capacity.
  FleetConfig fc = PlannerConfig();
  fc.host_capacity = 0;
  FleetPlanner fallback(fc, /*default_host_capacity=*/13);
  EXPECT_EQ(fallback.Desired(100.0, 0.2), 2);
}

TEST(FleetPlannerTest, FlashCrowdScalesUpOnTheFirstTick) {
  FleetPlanner planner(PlannerConfig(), 32);
  // The EWMA is still ~0, but scale-up sizes against the instantaneous rate:
  // desired = 4, provisioned = 1, ramp bound 2 per tick.
  EXPECT_EQ(planner.Step(100.0, 0.2, /*provisioned=*/1), 2);
  // Next tick the remaining deficit lands.
  EXPECT_EQ(planner.Step(100.0, 0.2, /*provisioned=*/3), 1);
  EXPECT_EQ(planner.Step(100.0, 0.2, /*provisioned=*/4), 0);
  EXPECT_GT(planner.rate_ewma(), 0.0);
}

TEST(FleetPlannerTest, ScaleDownWaitsOutConsecutiveLowTicks) {
  FleetPlanner planner(PlannerConfig(), 32);
  EXPECT_EQ(planner.Step(100.0, 0.2, 1), 2);
  // Demand collapses with 4 hosts provisioned: two quiet ticks hold steady,
  // the third drains exactly one host.
  EXPECT_EQ(planner.Step(0.0, 0.2, 4), 0);
  EXPECT_EQ(planner.Step(0.0, 0.2, 4), 0);
  EXPECT_EQ(planner.Step(0.0, 0.2, 4), -1);
  // The streak counter resets after a drain decision…
  EXPECT_EQ(planner.Step(0.0, 0.2, 3), 0);
  EXPECT_EQ(planner.Step(0.0, 0.2, 3), 0);
  // …and any busy tick resets it too: no drain on the next quiet tick.
  EXPECT_EQ(planner.Step(200.0, 0.2, 3), 2);
  EXPECT_EQ(planner.Step(0.0, 0.2, 5), 0);
}

// ---------------------------------------------------------------------------
// FleetLedger: host-hours accounting.
// ---------------------------------------------------------------------------

TEST(FleetLedgerTest, AccountsClosedAndOpenIntervals) {
  FleetLedger ledger;
  const fwbase::SimTime t0 = fwbase::SimTime::Zero();
  ledger.OnProvision(0, t0);
  ledger.OnProvision(1, t0 + Duration::Seconds(10));
  EXPECT_EQ(ledger.provisioned(), 2);
  // Open intervals accrue up to the query time.
  EXPECT_DOUBLE_EQ(ledger.HostSeconds(t0 + Duration::Seconds(20)), 20.0 + 10.0);
  ledger.OnRemove(1, t0 + Duration::Seconds(30));
  EXPECT_EQ(ledger.provisioned(), 1);
  // Host 1's 20s interval is closed; host 0 keeps accruing.
  EXPECT_DOUBLE_EQ(ledger.HostSeconds(t0 + Duration::Seconds(60)), 60.0 + 20.0);
  EXPECT_DOUBLE_EQ(ledger.HostHours(t0 + Duration::Seconds(3600)), (3600.0 + 20.0) / 3600.0);
}

TEST(PickJoinZoneTest, PicksLeastPopulatedLowestIndexOnTies) {
  EXPECT_EQ(PickJoinZone({2, 1, 3}), 1);
  EXPECT_EQ(PickJoinZone({1, 1, 1}), 0);
  EXPECT_EQ(PickJoinZone({2, 0, 0}), 1);
  EXPECT_EQ(PickJoinZone({5}), 0);
}

// ---------------------------------------------------------------------------
// Zone-aware scheduling properties (satellite: ring remap bounds under a
// zone mask; warm targets span distinct zones).
// ---------------------------------------------------------------------------

std::vector<HostView> ZonedViews(int hosts, int zones) {
  std::vector<HostView> views(hosts);
  for (int h = 0; h < hosts; ++h) {
    views[h].zone = h % zones;
  }
  return views;
}

TEST(ZoneSchedulerTest, WarmTargetsSpanDistinctZonesAndStartAtTheOwner) {
  auto sched = MakeScheduler(SchedulerPolicy::kSnapshotLocality, 9);
  std::vector<HostView> views = ZonedViews(9, 3);
  for (int a = 0; a < 32; ++a) {
    const std::string app = fwbase::StrFormat("app-%d", a);
    const std::vector<int> targets = sched->WarmTargets(app, views, 2);
    ASSERT_EQ(targets.size(), 2u) << app;
    // The primary is where an idle cluster dispatches the app.
    EXPECT_EQ(targets[0], sched->Pick(app, views)) << app;
    // Replicas never stack up inside one failure domain.
    EXPECT_NE(views[targets[0]].zone, views[targets[1]].zone) << app;
  }
}

TEST(ZoneSchedulerTest, WarmTargetsShrinkWhenOnlyOneZoneSurvives) {
  auto sched = MakeScheduler(SchedulerPolicy::kSnapshotLocality, 6);
  std::vector<HostView> views = ZonedViews(6, 3);
  for (int h = 0; h < 6; ++h) {
    views[h].alive = views[h].zone == 1;  // Zones 0 and 2 are down.
  }
  for (int a = 0; a < 16; ++a) {
    const std::string app = fwbase::StrFormat("app-%d", a);
    const std::vector<int> targets = sched->WarmTargets(app, views, 2);
    // One alive zone: exactly one target (never two in the same domain).
    ASSERT_EQ(targets.size(), 1u) << app;
    EXPECT_EQ(views[targets[0]].zone, 1) << app;
  }
}

TEST(ZoneSchedulerTest, PlacementFreePoliciesReturnNoWarmTargets) {
  std::vector<HostView> views = ZonedViews(4, 2);
  EXPECT_TRUE(MakeScheduler(SchedulerPolicy::kRoundRobin, 4)->WarmTargets("a", views, 2).empty());
  EXPECT_TRUE(MakeScheduler(SchedulerPolicy::kLeastLoaded, 4)->WarmTargets("a", views, 2).empty());
}

TEST(ZoneSchedulerTest, MaskingAZoneMovesOnlyThatZonesApps) {
  // The ring remap bound, zone edition: killing every host in one zone moves
  // exactly the apps whose owner lived there — survivors' apps stay put.
  auto sched = MakeScheduler(SchedulerPolicy::kSnapshotLocality, 9);
  std::vector<HostView> views = ZonedViews(9, 3);
  std::map<std::string, int> before;
  for (int a = 0; a < 200; ++a) {
    const std::string app = fwbase::StrFormat("app-%d", a);
    before[app] = sched->Pick(app, views);
  }
  constexpr int kDeadZone = 1;
  for (int h = 0; h < 9; ++h) {
    if (views[h].zone == kDeadZone) {
      views[h].alive = false;
    }
  }
  int moved = 0;
  for (const auto& [app, owner] : before) {
    const int now = sched->Pick(app, views);
    ASSERT_GE(now, 0) << app;
    EXPECT_NE(views[now].zone, kDeadZone) << app;
    if (views[owner].zone == kDeadZone) {
      ++moved;
    } else {
      EXPECT_EQ(now, owner) << app << " moved without losing its owner";
    }
  }
  // A third of the fleet died, so roughly a third of the apps must move.
  EXPECT_GT(moved, 0);
  // Restoring the zone restores every original owner (crash is not a leave).
  for (int h = 0; h < 9; ++h) {
    views[h].alive = true;
  }
  for (const auto& [app, owner] : before) {
    EXPECT_EQ(sched->Pick(app, views), owner) << app;
  }
}

// ---------------------------------------------------------------------------
// End-to-end lifecycle on model hosts.
// ---------------------------------------------------------------------------

std::unique_ptr<ClusterHost> MakeModelHost(fwsim::Simulation& sim, int index) {
  ModelHost::Config mc;
  mc.calibration = TestCalibration();
  return std::make_unique<ModelHost>(sim, index, mc);
}

void InstallApps(fwsim::Simulation& sim, Cluster& cluster, int num_apps) {
  for (int a = 0; a < num_apps; ++a) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("app-%d", a);
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
}

// Submits `count` requests round-robin over the apps at a fixed cadence,
// running `at_request` (if set) just before the given request index.
fwsim::Co<void> DriveStream(fwsim::Simulation& sim, Cluster& cluster, int count,
                            Duration gap, int num_apps, int trigger_at = -1,
                            std::function<void()> trigger = nullptr) {
  for (int i = 0; i < count; ++i) {
    if (i == trigger_at && trigger) {
      trigger();
    }
    (void)cluster.Submit(fwbase::StrFormat("app-%d", i % num_apps), "{}");
    co_await fwsim::Delay(sim, gap);
  }
}

TEST(ElasticFleetTest, ColdHostWarmsBeforeItServes) {
  auto run = [](uint64_t seed) {
    fwsim::Simulation sim(seed);
    std::vector<std::unique_ptr<ClusterHost>> hosts;
    hosts.push_back(MakeModelHost(sim, 0));
    hosts.push_back(MakeModelHost(sim, 1));
    Cluster::Config cc;
    cc.policy = SchedulerPolicy::kSnapshotLocality;
    cc.num_zones = 2;
    cc.host_factory = MakeModelHost;
    Cluster cluster(sim, std::move(hosts), cc);
    constexpr int kApps = 16;
    InstallApps(sim, cluster, kApps);
    constexpr int kInvocations = 600;
    sim.Spawn(DriveStream(sim, cluster, kInvocations, Duration::Millis(2), kApps,
                          /*trigger_at=*/100, [&cluster] { (void)cluster.AddHost(); }));
    cluster.Drain(kInvocations);
    sim.Run();

    EXPECT_EQ(cluster.num_hosts(), 3);
    EXPECT_EQ(cluster.lifecycle(2), HostLifecycle::kActive);
    // Zones 0 and 1 held one host each; the join must balance, not stack.
    EXPECT_EQ(cluster.zone_of(2), 0);
    EXPECT_EQ(cluster.active_hosts(), 3);
    const Cluster::Rollup r = cluster.ComputeRollup();
    EXPECT_EQ(r.hosts_added, 1u);
    EXPECT_EQ(r.completed + r.failed, static_cast<uint64_t>(kInvocations));
    EXPECT_EQ(r.failed, 0u);
    uint64_t served_by_joiner = 0;
    uint64_t warm_on_joiner = 0;
    for (uint64_t id = 1; id <= r.submitted; ++id) {
      EXPECT_EQ(cluster.outcome(id).completions, 1u) << id;
      if (cluster.outcome(id).host == 2) {
        ++served_by_joiner;
        warm_on_joiner += cluster.outcome(id).warm_hit ? 1 : 0;
      }
    }
    // The ring moved some apps onto the joiner, and because admission waits
    // for warm-pool readiness its serving starts warm, not cold.
    EXPECT_GT(served_by_joiner, 0u);
    EXPECT_GT(warm_on_joiner, 0u);
    return cluster.OutcomeDigest();
  };
  // Growth is part of the deterministic event stream: same seed, same run.
  EXPECT_EQ(run(17), run(17));
}

TEST(ElasticFleetTest, RemoveHostDrainsReplenishesAndTearsDownCleanly) {
  fwsim::Simulation sim(29);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(MakeModelHost(sim, i));
  }
  Cluster::Config cc;
  cc.policy = SchedulerPolicy::kSnapshotLocality;
  cc.num_zones = 3;
  Cluster cluster(sim, std::move(hosts), cc);
  constexpr int kApps = 8;
  InstallApps(sim, cluster, kApps);
  constexpr int kInvocations = 500;
  sim.Spawn(DriveStream(sim, cluster, kInvocations, Duration::Millis(2), kApps,
                        /*trigger_at=*/150, [&cluster] { cluster.RemoveHost(1); }));
  cluster.Drain(kInvocations);
  sim.Run();

  EXPECT_EQ(cluster.lifecycle(1), HostLifecycle::kRemoved);
  EXPECT_FALSE(cluster.alive(1));
  EXPECT_EQ(cluster.active_hosts(), 2);
  // Teardown left nothing behind: no parked clones, no live VMs, and any
  // clone whose preparation raced the drain was discarded, not parked.
  EXPECT_EQ(cluster.host(1).TotalPooledClones(), 0u);
  EXPECT_EQ(cluster.host(1).LiveVmCount(), 0u);
  const Cluster::Rollup r = cluster.ComputeRollup();
  EXPECT_EQ(r.hosts_removed, 1u);
  EXPECT_EQ(r.completed, static_cast<uint64_t>(kInvocations));
  EXPECT_EQ(r.failed, 0u);
  for (uint64_t id = 1; id <= r.submitted; ++id) {
    EXPECT_EQ(cluster.outcome(id).completions, 1u) << id;
  }
  // The ledger stopped charging for host 1 at removal: total paid time is
  // strictly less than three hosts for the whole run.
  const double elapsed_hours = (sim.Now() - fwbase::SimTime::Zero()).seconds() / 3600.0;
  EXPECT_GT(r.host_hours, 0.0);
  EXPECT_LT(r.host_hours, 3.0 * elapsed_hours);
}

TEST(ElasticFleetTest, ZoneSpreadKeepsWarmCapacityInTwoZones) {
  fwsim::Simulation sim(41);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(MakeModelHost(sim, i));
  }
  Cluster::Config cc;
  cc.policy = SchedulerPolicy::kSnapshotLocality;
  cc.num_zones = 2;  // Hosts 0/2 in zone 0, hosts 1/3 in zone 1.
  Cluster cluster(sim, std::move(hosts), cc);
  constexpr int kApps = 4;
  InstallApps(sim, cluster, kApps);
  constexpr int kInvocations = 1500;
  sim.Spawn(DriveStream(sim, cluster, kInvocations, Duration::Millis(2), kApps));
  cluster.Drain(kInvocations);
  sim.Run();

  // Every traffic-bearing app ends the run with warm clones in at least two
  // distinct zones: a whole-zone outage cannot wipe out its warm capacity.
  for (int a = 0; a < kApps; ++a) {
    const std::string app = fwbase::StrFormat("app-%d", a);
    std::set<int> zones_with_clones;
    for (int h = 0; h < cluster.num_hosts(); ++h) {
      if (cluster.host(h).PooledClones(app) > 0) {
        zones_with_clones.insert(cluster.zone_of(h));
      }
    }
    EXPECT_GE(zones_with_clones.size(), 2u) << app;
  }
}

TEST(ElasticFleetTest, FleetAutoscalerGrowsUnderLoadAndShrinksWhenIdle) {
  fwsim::Simulation sim(53);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  hosts.push_back(MakeModelHost(sim, 0));
  Cluster::Config cc;
  cc.policy = SchedulerPolicy::kSnapshotLocality;
  cc.num_zones = 2;
  cc.host_factory = MakeModelHost;
  cc.fleet.enabled = true;
  cc.fleet.interval = Duration::Seconds(1);
  cc.fleet.min_hosts = 1;
  cc.fleet.max_hosts = 4;
  cc.fleet.host_capacity = 2;
  cc.fleet.scale_down_ticks = 2;
  Cluster cluster(sim, std::move(hosts), cc);
  constexpr int kApps = 8;
  InstallApps(sim, cluster, kApps);

  // Phase 1: ~500 req/s for 4 simulated seconds forces growth; phase 2: a
  // 1 req/s trickle for 15s lets the planner drain hosts back down.
  constexpr int kBurst = 2000;
  constexpr int kTrickle = 15;
  sim.Spawn(DriveStream(sim, cluster, kBurst, Duration::Millis(2), kApps));
  sim.Spawn([](fwsim::Simulation& s, Cluster& c, int apps) -> fwsim::Co<void> {
    co_await fwsim::Delay(s, Duration::Seconds(5));
    for (int i = 0; i < kTrickle; ++i) {
      (void)c.Submit(fwbase::StrFormat("app-%d", i % apps), "{}");
      co_await fwsim::Delay(s, Duration::Seconds(1));
    }
  }(sim, cluster, kApps));
  cluster.Drain(kBurst + kTrickle);
  sim.Run();

  const Cluster::Rollup r = cluster.ComputeRollup();
  EXPECT_GT(r.hosts_added, 0u);
  EXPECT_GT(r.hosts_removed, 0u);
  EXPECT_LT(cluster.active_hosts(), cluster.num_hosts());
  EXPECT_EQ(r.completed + r.failed, static_cast<uint64_t>(kBurst + kTrickle));
  for (uint64_t id = 1; id <= r.submitted; ++id) {
    EXPECT_EQ(cluster.outcome(id).completions, 1u) << id;
  }
  // Elastic accounting: strictly cheaper than paying for the peak fleet the
  // whole run, strictly more than the single seed host.
  const double elapsed_hours = (sim.Now() - fwbase::SimTime::Zero()).seconds() / 3600.0;
  EXPECT_GT(r.host_hours, elapsed_hours);
  EXPECT_LT(r.host_hours, cluster.num_hosts() * elapsed_hours);
}

// The fleet autoscaler counts joining and warming hosts as provisioned, so a
// low tick right after a flash crowd's scale-up must still not drain the one
// host able to serve while its replacements are warming: every dispatch in
// that window would fail with "no schedulable host".
TEST(ElasticFleetTest, ScaleDownNeverDrainsTheLastActiveHost) {
  fwsim::Simulation sim(83);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  hosts.push_back(MakeModelHost(sim, 0));
  Cluster::Config cc;
  cc.policy = SchedulerPolicy::kSnapshotLocality;
  cc.num_zones = 3;
  cc.host_factory = MakeModelHost;
  // Joiners pull every snapshot through the registry before admission, so
  // warm-up outlasts several planner ticks.
  cc.distribution.enabled = true;
  cc.fleet.enabled = true;
  cc.fleet.interval = Duration::Millis(250);
  cc.fleet.min_hosts = 1;
  cc.fleet.max_hosts = 8;
  cc.fleet.host_capacity = 2;
  cc.fleet.rate_ewma_alpha = 1.0;
  cc.fleet.scale_down_ticks = 1;
  cc.fleet.max_add_per_tick = 4;
  Cluster cluster(sim, std::move(hosts), cc);
  constexpr int kApps = 32;
  InstallApps(sim, cluster, kApps);

  // A half-second flash crowd at 2000 req/s, then a 50 req/s trickle.
  constexpr int kFlash = 1000;
  constexpr int kTrickle = 200;
  sim.Spawn([](fwsim::Simulation& s, Cluster& c) -> fwsim::Co<void> {
    for (int i = 0; i < kFlash + kTrickle; ++i) {
      (void)c.Submit(fwbase::StrFormat("app-%d", i % kApps), "{}");
      co_await fwsim::Delay(s, Duration::Micros(i < kFlash ? 500 : 20000));
    }
  }(sim, cluster));
  cluster.Drain(kFlash + kTrickle);
  sim.Run();

  const Cluster::Rollup r = cluster.ComputeRollup();
  // The fleet grew for the flash and shrank again once the joiners were
  // serving.
  EXPECT_GT(r.hosts_added, 0u);
  EXPECT_GT(r.hosts_removed, 0u);
  EXPECT_EQ(r.completed + r.failed, static_cast<uint64_t>(kFlash + kTrickle));
  uint64_t unschedulable = 0;
  for (uint64_t id = 1; id <= r.submitted; ++id) {
    const auto& status = cluster.outcome(id).status;
    if (!status.ok() && status.message().find("no schedulable host") != std::string::npos) {
      ++unschedulable;
    }
  }
  EXPECT_EQ(unschedulable, 0u);
  EXPECT_GE(cluster.active_hosts(), 1);
}

// ---------------------------------------------------------------------------
// Zone outages.
// ---------------------------------------------------------------------------

TEST(ZoneOutageTest, SurvivorsAbsorbAManualZoneKill) {
  fwsim::Simulation sim(67);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(MakeModelHost(sim, i));
  }
  Cluster::Config cc;
  cc.policy = SchedulerPolicy::kSnapshotLocality;
  cc.num_zones = 3;
  Cluster cluster(sim, std::move(hosts), cc);
  constexpr int kApps = 8;
  InstallApps(sim, cluster, kApps);
  EXPECT_EQ(cluster.zones_alive(), 3);
  constexpr int kInvocations = 800;
  sim.Spawn(DriveStream(sim, cluster, kInvocations, Duration::Millis(2), kApps,
                        /*trigger_at=*/300, [&cluster] {
                          cluster.KillZone(0);
                          EXPECT_EQ(cluster.zones_alive(), 2);
                        }));
  sim.Spawn([](fwsim::Simulation& s, Cluster& c) -> fwsim::Co<void> {
    co_await fwsim::Delay(s, Duration::Millis(1100));
    c.RestoreZone(0);
  }(sim, cluster));
  cluster.Drain(kInvocations);
  sim.Run();

  EXPECT_EQ(cluster.zones_alive(), 3);  // Heartbeats reinstated the zone.
  const Cluster::Rollup r = cluster.ComputeRollup();
  EXPECT_EQ(r.zone_outages, 1u);
  EXPECT_EQ(r.completed + r.failed, static_cast<uint64_t>(kInvocations));
  // Exactly-once survived the correlated crash: retried, never duplicated.
  EXPECT_GT(r.retries, 0u);
  for (uint64_t id = 1; id <= r.submitted; ++id) {
    EXPECT_EQ(cluster.outcome(id).completions, 1u) << id;
  }
}

TEST(ZoneOutageTest, FaultPlanDrivenOutageIsDeterministic) {
  auto run = [] {
    fwsim::Simulation sim(71);
    std::vector<std::unique_ptr<ClusterHost>> hosts;
    for (int i = 0; i < 6; ++i) {
      hosts.push_back(MakeModelHost(sim, i));
    }
    Cluster::Config cc;
    cc.policy = SchedulerPolicy::kSnapshotLocality;
    cc.num_zones = 3;
    cc.fault_plan.Set(fwfault::FaultKind::kZoneOutage, 1.0, /*max_trips=*/1);
    cc.zone_outage_check_interval = Duration::Millis(500);
    cc.zone_outage_duration = Duration::Seconds(1);
    Cluster cluster(sim, std::move(hosts), cc);
    constexpr int kApps = 8;
    InstallApps(sim, cluster, kApps);
    constexpr int kInvocations = 800;
    sim.Spawn(DriveStream(sim, cluster, kInvocations, Duration::Millis(2), kApps));
    cluster.Drain(kInvocations);
    sim.Run();
    const Cluster::Rollup r = cluster.ComputeRollup();
    EXPECT_EQ(r.zone_outages, 1u);
    EXPECT_EQ(r.completed + r.failed, static_cast<uint64_t>(kInvocations));
    for (uint64_t id = 1; id <= r.submitted; ++id) {
      EXPECT_EQ(cluster.outcome(id).completions, 1u) << id;
    }
    return cluster.OutcomeDigest();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace fwcluster
