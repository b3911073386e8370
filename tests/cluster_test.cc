// Property tests for the cluster layer: consistent-hash ring invariants,
// scheduler policies, load-generator statistics, autoscaler behaviour, and
// bit-identical replay of whole cluster runs.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/strings.h"
#include "src/cluster/admission.h"
#include "src/cluster/cluster.h"
#include "src/cluster/health.h"
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
using fwwork::ArrivalProcess;

std::vector<std::string> TestKeys(int n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) {
    keys.push_back(fwbase::StrFormat("app-%d", i));
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Consistent-hash ring.
// ---------------------------------------------------------------------------

TEST(HashKeyTest, IsStableAcrossBuilds) {
  // Pinned values (FNV-1a + murmur3 finalizer): ring placement — and thus
  // every golden and outcome digest — depends on these never drifting.
  EXPECT_EQ(HashKey(""), 0xefd01f60ba992926ull);
  EXPECT_EQ(HashKey("a"), 0x82a2a958a9bece5bull);
}

TEST(ConsistentHashRingTest, JoinMovesKeysOnlyToTheNewHost) {
  constexpr int kHosts = 8;
  constexpr int kKeys = 2000;
  ConsistentHashRing ring(64);
  for (int h = 0; h < kHosts; ++h) {
    ring.AddHost(h);
  }
  const std::vector<std::string> keys = TestKeys(kKeys);
  std::map<std::string, int> before;
  for (const std::string& key : keys) {
    before[key] = ring.Owner(key);
  }

  ring.AddHost(kHosts);
  int moved = 0;
  for (const std::string& key : keys) {
    const int now = ring.Owner(key);
    if (now != before[key]) {
      // Every moved key must land on the new host — never shuffle between
      // existing hosts.
      EXPECT_EQ(now, kHosts) << key;
      ++moved;
    }
  }
  // Expect roughly kKeys/(kHosts+1) moves; allow generous slack for hash
  // variance, but a naive mod-N scheme (~kKeys * kHosts/(kHosts+1) moves)
  // must fail this bound.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 3 * kKeys / (kHosts + 1));
}

TEST(ConsistentHashRingTest, LeaveMovesOnlyTheLeavingHostsKeys) {
  constexpr int kHosts = 8;
  ConsistentHashRing ring(64);
  for (int h = 0; h < kHosts; ++h) {
    ring.AddHost(h);
  }
  const std::vector<std::string> keys = TestKeys(2000);
  std::map<std::string, int> before;
  for (const std::string& key : keys) {
    before[key] = ring.Owner(key);
  }

  constexpr int kLeaver = 3;
  ring.RemoveHost(kLeaver);
  EXPECT_FALSE(ring.Contains(kLeaver));
  for (const std::string& key : keys) {
    const int now = ring.Owner(key);
    if (before[key] == kLeaver) {
      EXPECT_NE(now, kLeaver) << key;
    } else {
      EXPECT_EQ(now, before[key]) << key;  // Unrelated keys must not move.
    }
  }
}

TEST(ConsistentHashRingTest, JoinThenLeaveRestoresOriginalOwnership) {
  ConsistentHashRing ring(64);
  for (int h = 0; h < 8; ++h) {
    ring.AddHost(h);
  }
  const std::vector<std::string> keys = TestKeys(500);
  std::map<std::string, int> before;
  for (const std::string& key : keys) {
    before[key] = ring.Owner(key);
  }
  ring.AddHost(8);
  ring.RemoveHost(8);
  for (const std::string& key : keys) {
    EXPECT_EQ(ring.Owner(key), before[key]) << key;
  }
}

TEST(ConsistentHashRingTest, OwnerIfSkipsDeadHosts) {
  ConsistentHashRing ring(64);
  for (int h = 0; h < 4; ++h) {
    ring.AddHost(h);
  }
  for (const std::string& key : TestKeys(200)) {
    const int owner = ring.Owner(key);
    const int fallback =
        ring.OwnerIf(key, [owner](int h) { return h != owner; });
    EXPECT_NE(fallback, owner) << key;
    EXPECT_GE(fallback, 0) << key;
    EXPECT_EQ(ring.OwnerIf(key, [](int) { return false; }), -1);
  }
}

// ---------------------------------------------------------------------------
// Scheduler policies.
// ---------------------------------------------------------------------------

std::vector<HostView> MakeViews(int n) { return std::vector<HostView>(n); }

TEST(SchedulerTest, RoundRobinRotatesAndSkipsDead) {
  auto sched = MakeScheduler(SchedulerPolicy::kRoundRobin, 4);
  std::vector<HostView> views = MakeViews(4);
  views[1].alive = false;
  std::vector<int> picks;
  for (int i = 0; i < 6; ++i) {
    picks.push_back(sched->Pick("app", views));
  }
  EXPECT_EQ(picks, (std::vector<int>{0, 2, 3, 0, 2, 3}));
}

TEST(SchedulerTest, LeastLoadedPicksArgminAndNeverPicksCrashed) {
  auto sched = MakeScheduler(SchedulerPolicy::kLeastLoaded, 5);
  std::vector<HostView> views = MakeViews(5);
  views[0].inflight = 7;
  views[1].inflight = 2;
  views[2].inflight = 1;
  views[2].alive = false;  // The least-loaded host is dead.
  views[3].inflight = 2;
  views[4].inflight = 9;
  // Argmin over the alive hosts, ties to the lowest index.
  EXPECT_EQ(sched->Pick("app", views), 1);
  // Sweep: whatever the load vector, a crashed host is never picked.
  fwbase::Rng rng(fwtest::PerTestSeed());
  for (int round = 0; round < 500; ++round) {
    for (auto& v : views) {
      v.inflight = static_cast<int64_t>(rng.UniformU64(20));
      v.alive = rng.UniformU64(4) != 0;
    }
    const int pick = sched->Pick("app", views);
    if (pick >= 0) {
      EXPECT_TRUE(views[pick].alive);
    }
  }
}

TEST(SchedulerTest, AllPoliciesReturnMinusOneWhenAllHostsDead) {
  for (SchedulerPolicy policy : AllSchedulerPolicies()) {
    auto sched = MakeScheduler(policy, 3);
    std::vector<HostView> views = MakeViews(3);
    for (auto& v : views) {
      v.alive = false;
    }
    EXPECT_EQ(sched->Pick("app", views), -1) << SchedulerPolicyName(policy);
  }
}

TEST(SchedulerTest, SnapshotLocalityIsStickyPerApp) {
  auto sched = MakeScheduler(SchedulerPolicy::kSnapshotLocality, 8);
  std::vector<HostView> views = MakeViews(8);
  std::set<int> hosts_used;
  for (const std::string& app : TestKeys(64)) {
    const int first = sched->Pick(app, views);
    ASSERT_GE(first, 0);
    hosts_used.insert(first);
    // An idle cluster never spills: the same app goes to the same host.
    EXPECT_EQ(sched->Pick(app, views), first) << app;
  }
  // 64 apps over 8 hosts must not all collapse onto a couple of hosts.
  EXPECT_GE(hosts_used.size(), 4u);
}

TEST(SchedulerTest, SnapshotLocalityCrashIsNotALeave) {
  auto sched = MakeScheduler(SchedulerPolicy::kSnapshotLocality, 8);
  std::vector<HostView> views = MakeViews(8);
  const std::string app = "app-7";
  const int home = sched->Pick(app, views);
  ASSERT_GE(home, 0);

  views[home].alive = false;  // Crash the owner: spill somewhere else…
  const int spill = sched->Pick(app, views);
  ASSERT_GE(spill, 0);
  EXPECT_NE(spill, home);
  EXPECT_TRUE(views[spill].alive);

  views[home].alive = true;  // …and come home on restart (no ring change).
  EXPECT_EQ(sched->Pick(app, views), home);
}

TEST(SchedulerTest, SnapshotLocalitySpillsWhenOwnerIsSaturated) {
  auto sched = MakeScheduler(SchedulerPolicy::kSnapshotLocality, 8);
  std::vector<HostView> views = MakeViews(8);
  const std::string app = "app-0";
  const int home = sched->Pick(app, views);
  ASSERT_GE(home, 0);
  // Load the owner far above the bounded-load threshold (mean is ~12.5 here,
  // bound = 1.25 * mean + 8): the head app must spill to another host.
  for (auto& v : views) {
    v.inflight = 4;
  }
  views[home].inflight = 300;
  const int spill = sched->Pick(app, views);
  ASSERT_GE(spill, 0);
  EXPECT_NE(spill, home);
}

// PickInput::exclude must pick exactly as if the excluded host's view read
// not-alive (with the totals adjusted to match), for every policy; the holds
// predicate is asked only about hosts a ring walk reaches, and a non-holder
// loses to a holder inside the load bound.
TEST(SchedulerTest, PickInputExclusionAndHoldsMatchTheirViewEquivalents) {
  fwbase::Rng rng(fwtest::PerTestSeed());
  constexpr int kHosts = 12;
  for (SchedulerPolicy policy : AllSchedulerPolicies()) {
    auto with_input = MakeScheduler(policy, kHosts);
    auto with_copy = MakeScheduler(policy, kHosts);
    std::vector<HostView> views = MakeViews(kHosts);
    for (int round = 0; round < 400; ++round) {
      for (auto& v : views) {
        v.inflight = static_cast<int64_t>(rng.UniformU64(30));
        v.alive = rng.UniformU64(5) != 0;
        v.suspect = rng.UniformU64(6) == 0;
        v.pressured = rng.UniformU64(8) == 0;
      }
      const int excluded = static_cast<int>(rng.UniformU64(kHosts));
      PickInput in = PickInput::Over(views);
      if (views[excluded].alive) {
        in.alive_count -= 1;
        in.alive_inflight -= views[excluded].inflight;
      }
      in.exclude = excluded;
      std::vector<HostView> copy = views;
      copy[excluded].alive = false;
      const std::string app = fwbase::StrFormat("app-%d", round % 17);
      EXPECT_EQ(with_input->Pick(app, in), with_copy->Pick(app, copy))
          << SchedulerPolicyName(policy) << " round " << round;
    }
  }

  auto sched = MakeScheduler(SchedulerPolicy::kSnapshotLocality, kHosts);
  std::vector<HostView> views = MakeViews(kHosts);
  const std::string app = "app-3";
  const int owner = sched->Pick(app, views);
  ASSERT_GE(owner, 0);
  std::set<int> asked;
  auto holds = [&asked, owner](int h) {
    asked.insert(h);
    return h != owner;  // Everyone but the ring owner holds the snapshot.
  };
  PickInput in = PickInput::Over(views);
  in.holds = holds;
  const int picked = sched->Pick(app, in);
  EXPECT_NE(picked, owner);
  EXPECT_TRUE(asked.count(owner) > 0 && asked.count(picked) > 0);
  // The walk stopped at the first holder clockwise of the owner.
  EXPECT_EQ(asked.size(), 2u);
}

// ---------------------------------------------------------------------------
// Load generator.
// ---------------------------------------------------------------------------

TEST(LoadGenTest, OffsetsAreMonotoneNonDecreasing) {
  for (ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty, ArrivalProcess::kDiurnal}) {
    fwwork::LoadGenConfig cfg;
    cfg.arrival = process;
    cfg.seed = fwtest::PerTestSeed();
    fwwork::LoadGen gen(cfg);
    Duration prev;
    for (int i = 0; i < 5000; ++i) {
      const fwwork::Arrival a = gen.Next();
      EXPECT_GE(a.offset.nanos(), prev.nanos());
      EXPECT_GE(a.app, 0);
      EXPECT_LT(a.app, cfg.num_apps);
      prev = a.offset;
    }
  }
}

TEST(LoadGenTest, LongRunMeanRateMatchesConfig) {
  // All three processes are normalised to the same long-run mean rate.
  for (ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty, ArrivalProcess::kDiurnal}) {
    fwwork::LoadGenConfig cfg;
    cfg.arrival = process;
    cfg.rate_per_sec = 2000.0;
    // Shrink the modulation periods so the measurement window spans many
    // burst cycles / diurnal periods; otherwise the observed mean is
    // dominated by whichever phase the window happens to cover.
    cfg.mean_burst_seconds = 0.2;
    cfg.mean_calm_seconds = 1.8;
    cfg.diurnal_period_seconds = 5.0;
    cfg.seed = 7;
    fwwork::LoadGen gen(cfg);
    constexpr int kN = 200000;
    fwwork::Arrival last;
    for (int i = 0; i < kN; ++i) {
      last = gen.Next();
    }
    const double observed = kN / last.offset.seconds();
    EXPECT_NEAR(observed, cfg.rate_per_sec, 0.08 * cfg.rate_per_sec)
        << fwwork::ArrivalProcessName(process);
  }
}

TEST(LoadGenTest, ZipfPopularityIsSkewedAndNormalised) {
  fwwork::LoadGenConfig cfg;
  cfg.num_apps = 32;
  cfg.seed = fwtest::PerTestSeed();
  fwwork::LoadGen gen(cfg);
  double total = 0.0;
  for (int app = 0; app < cfg.num_apps; ++app) {
    total += gen.AppProbability(app);
    if (app > 0) {
      EXPECT_LE(gen.AppProbability(app), gen.AppProbability(app - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Empirical frequencies track the pmf for the head app.
  std::vector<int> counts(cfg.num_apps, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    ++counts[gen.Next().app];
  }
  const double head = static_cast<double>(counts[0]) / kN;
  EXPECT_NEAR(head, gen.AppProbability(0), 0.02);
  EXPECT_GT(counts[0], counts[cfg.num_apps - 1]);
}

TEST(LoadGenTest, SameSeedReplaysIdentically) {
  fwwork::LoadGenConfig cfg;
  cfg.arrival = ArrivalProcess::kBursty;
  cfg.seed = 1234;
  fwwork::LoadGen a(cfg);
  fwwork::LoadGen b(cfg);
  bool any_difference_from_other_seed = false;
  cfg.seed = 1235;
  fwwork::LoadGen c(cfg);
  for (int i = 0; i < 10000; ++i) {
    const fwwork::Arrival aa = a.Next();
    const fwwork::Arrival bb = b.Next();
    const fwwork::Arrival cc = c.Next();
    ASSERT_EQ(aa.offset.nanos(), bb.offset.nanos());
    ASSERT_EQ(aa.app, bb.app);
    any_difference_from_other_seed |=
        aa.offset.nanos() != cc.offset.nanos() || aa.app != cc.app;
  }
  EXPECT_TRUE(any_difference_from_other_seed);
}

// ---------------------------------------------------------------------------
// Whole-cluster determinism + autoscaler (model hosts: fast enough for unit
// scale).
// ---------------------------------------------------------------------------

struct RunResult {
  uint64_t digest = 0;
  Cluster::Rollup rollup;
};

fwsim::Co<void> DriveArrivals(fwsim::Simulation& sim, Cluster& cluster,
                              fwwork::LoadGen& gen, int count) {
  for (int i = 0; i < count; ++i) {
    const fwwork::Arrival a = gen.Next();
    const Duration wait = a.offset - (sim.Now() - fwbase::SimTime::Zero());
    if (wait.nanos() > 0) {
      co_await fwsim::Delay(sim, wait);
    }
    (void)cluster.Submit(fwbase::StrFormat("app-%d", a.app), "{}");
  }
}

RunResult RunModelCluster(uint64_t seed, SchedulerPolicy policy, int invocations) {
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 4; ++i) {
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, i, mc));
  }
  Cluster::Config cc;
  cc.policy = policy;
  Cluster cluster(sim, std::move(hosts), cc);

  fwwork::LoadGenConfig lg;
  lg.arrival = ArrivalProcess::kBursty;
  lg.rate_per_sec = 800.0;
  lg.num_apps = 8;
  lg.seed = seed;
  fwwork::LoadGen gen(lg);
  for (int a = 0; a < lg.num_apps; ++a) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("app-%d", a);
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  sim.Spawn(DriveArrivals(sim, cluster, gen, invocations));
  cluster.Drain(invocations);

  RunResult r;
  r.digest = cluster.OutcomeDigest();
  r.rollup = cluster.ComputeRollup();
  return r;
}

TEST(ClusterDeterminismTest, SameSeedIsBitIdenticalAcrossPolicies) {
  for (SchedulerPolicy policy : AllSchedulerPolicies()) {
    const RunResult a = RunModelCluster(99, policy, 2000);
    const RunResult b = RunModelCluster(99, policy, 2000);
    EXPECT_EQ(a.digest, b.digest) << SchedulerPolicyName(policy);
    EXPECT_EQ(a.rollup.completed, b.rollup.completed);
    EXPECT_EQ(a.rollup.warm_hits, b.rollup.warm_hits);
  }
}

TEST(ClusterDeterminismTest, DifferentSeedsDiverge) {
  const RunResult a = RunModelCluster(1, SchedulerPolicy::kLeastLoaded, 1000);
  const RunResult b = RunModelCluster(2, SchedulerPolicy::kLeastLoaded, 1000);
  EXPECT_NE(a.digest, b.digest);
}

TEST(ClusterAutoscalerTest, SustainedLoadProducesWarmHits) {
  const RunResult r = RunModelCluster(7, SchedulerPolicy::kSnapshotLocality, 4000);
  EXPECT_EQ(r.rollup.completed, 4000u);
  EXPECT_EQ(r.rollup.failed, 0u);
  // After the autoscaler's first ticks, the steady-state request stream
  // should be served overwhelmingly from parked clones.
  EXPECT_GT(r.rollup.warm_hits, r.rollup.completed / 2);
}

// ---------------------------------------------------------------------------
// Failure detector (health.h).
// ---------------------------------------------------------------------------

TEST(FailureDetectorTest, SilenceDrivesSuspectThenDeadAtPhiThresholds) {
  HealthConfig hc;
  FailureDetector fd(1, hc, fwbase::SimTime::Zero());
  fwbase::SimTime t = fwbase::SimTime::Zero();
  for (int i = 0; i < 5; ++i) {
    t = t + hc.heartbeat_interval;
    EXPECT_EQ(fd.Heartbeat(0, t, 0.0), HealthTransition::kNone);
  }
  EXPECT_EQ(fd.state(0), HealthState::kAlive);

  const Duration to_suspect = fd.TimeToPhi(0, hc.phi_suspect);
  const Duration to_dead = fd.TimeToPhi(0, hc.phi_dead);
  EXPECT_LT(to_suspect.nanos(), to_dead.nanos());
  EXPECT_EQ(fd.Evaluate(0, t + to_suspect - Duration::Millis(1)), HealthTransition::kNone);
  EXPECT_EQ(fd.Evaluate(0, t + to_suspect + Duration::Millis(1)),
            HealthTransition::kSuspected);
  EXPECT_EQ(fd.state(0), HealthState::kSuspect);
  // Idempotent between new evidence: re-evaluating does not re-announce.
  EXPECT_EQ(fd.Evaluate(0, t + to_suspect + Duration::Millis(2)), HealthTransition::kNone);
  EXPECT_EQ(fd.Evaluate(0, t + to_dead + Duration::Millis(1)), HealthTransition::kDied);
  EXPECT_EQ(fd.state(0), HealthState::kDead);
  EXPECT_EQ(fd.Evaluate(0, t + to_dead + Duration::Seconds(10)), HealthTransition::kNone);
}

TEST(FailureDetectorTest, PhiGrowsWithSilence) {
  HealthConfig hc;
  FailureDetector fd(1, hc, fwbase::SimTime::Zero());
  const double early = fd.Phi(0, fwbase::SimTime::Zero() + Duration::Millis(50));
  const double late = fd.Phi(0, fwbase::SimTime::Zero() + Duration::Millis(500));
  EXPECT_LT(early, late);
}

TEST(FailureDetectorTest, HeartbeatReinstatesSuspectAndDead) {
  HealthConfig hc;
  FailureDetector fd(1, hc, fwbase::SimTime::Zero());
  const Duration to_suspect = fd.TimeToPhi(0, hc.phi_suspect);
  fwbase::SimTime t = fwbase::SimTime::Zero() + to_suspect + Duration::Millis(1);
  EXPECT_EQ(fd.Evaluate(0, t), HealthTransition::kSuspected);
  EXPECT_EQ(fd.Heartbeat(0, t + Duration::Millis(1), 0.0), HealthTransition::kReinstated);
  EXPECT_EQ(fd.state(0), HealthState::kAlive);

  EXPECT_EQ(fd.ReportFailure(0), HealthTransition::kDied);
  EXPECT_EQ(fd.state(0), HealthState::kDead);
  EXPECT_EQ(fd.Heartbeat(0, t + Duration::Seconds(30), 0.0), HealthTransition::kReinstated);
  EXPECT_EQ(fd.state(0), HealthState::kAlive);
}

TEST(FailureDetectorTest, ReportFailureIsImmediateAndIdempotent) {
  HealthConfig hc;
  FailureDetector fd(2, hc, fwbase::SimTime::Zero());
  EXPECT_EQ(fd.ReportFailure(0), HealthTransition::kDied);
  EXPECT_EQ(fd.ReportFailure(0), HealthTransition::kNone);
  EXPECT_EQ(fd.state(0), HealthState::kDead);
  EXPECT_EQ(fd.state(1), HealthState::kAlive);
}

TEST(FailureDetectorTest, DowntimeGapIsNotAnIntervalSample) {
  HealthConfig hc;
  FailureDetector fd(1, hc, fwbase::SimTime::Zero());
  fwbase::SimTime t = fwbase::SimTime::Zero();
  for (int i = 0; i < 10; ++i) {
    t = t + hc.heartbeat_interval;
    fd.Heartbeat(0, t, 0.0);
  }
  const Duration before = fd.TimeToPhi(0, hc.phi_dead);

  // Death, 30s of downtime, then a reinstating heartbeat: the 30s gap must
  // not be folded into the interval EWMA (it was downtime, not lateness).
  fd.ReportFailure(0);
  t = t + Duration::Seconds(30);
  EXPECT_EQ(fd.Heartbeat(0, t, 0.0), HealthTransition::kReinstated);
  EXPECT_EQ(fd.TimeToPhi(0, hc.phi_dead).nanos(), before.nanos());
}

TEST(FailureDetectorTest, PressureTracksHeartbeatPayload) {
  HealthConfig hc;  // pressure_fraction = 0.9
  FailureDetector fd(1, hc, fwbase::SimTime::Zero());
  EXPECT_FALSE(fd.pressured(0));
  fd.Heartbeat(0, fwbase::SimTime::Zero() + Duration::Millis(100), 0.95);
  EXPECT_TRUE(fd.pressured(0));
  EXPECT_DOUBLE_EQ(fd.pss_fraction(0), 0.95);
  fd.Heartbeat(0, fwbase::SimTime::Zero() + Duration::Millis(200), 0.5);
  EXPECT_FALSE(fd.pressured(0));
}

// The cluster evaluates a host only once its DueTime has come, so DueTime
// must be exact: Evaluate before it never transitions, and the first
// Evaluate at or after last_heartbeat + TimeToPhi(threshold) always does.
// Seeded random cadences, jittered gaps and EWMA weights shape the interval
// mean; each round walks alive → suspect → dead → heartbeat → ReportFailure.
TEST(FailureDetectorTest, DueTimeIsTheExactInstantEvaluateTransitions) {
  fwbase::Rng rng(fwtest::PerTestSeed());
  const Duration one_ns = Duration::Nanos(1);
  // Evaluate on a copy, so probing leaves the detector under test untouched.
  auto probe = [](const FailureDetector& fd, fwbase::SimTime at) {
    FailureDetector copy = fd;
    return copy.Evaluate(0, at);
  };
  for (int round = 0; round < 300; ++round) {
    HealthConfig hc;
    hc.heartbeat_interval = Duration::Micros(1 + static_cast<int64_t>(rng.UniformU64(500000)));
    hc.phi_suspect = rng.UniformDouble(0.5, 4.0);
    hc.phi_dead = hc.phi_suspect + rng.UniformDouble(0.1, 10.0);
    hc.interval_ewma_alpha = rng.UniformDouble(0.05, 0.95);
    fwbase::SimTime t = fwbase::SimTime::FromNanos(static_cast<int64_t>(rng.UniformU64(1000000)));
    FailureDetector fd(1, hc, t);
    const int beats = static_cast<int>(rng.UniformU64(20));
    for (int i = 0; i < beats; ++i) {
      const double gap = hc.heartbeat_interval.seconds() * rng.UniformDouble(0.2, 3.0);
      t = t + Duration::Nanos(1 + static_cast<int64_t>(gap * 1e9));
      ASSERT_EQ(fd.Heartbeat(0, t, 0.0), HealthTransition::kNone);
    }
    const fwbase::SimTime last = t;

    // Alive: due at the suspect threshold.
    const fwbase::SimTime suspect_at = last + fd.TimeToPhi(0, hc.phi_suspect);
    ASSERT_EQ(fd.DueTime(0), suspect_at) << "round " << round;
    EXPECT_EQ(probe(fd, suspect_at - one_ns), HealthTransition::kNone) << "round " << round;
    const fwbase::SimTime early = last + Duration::Nanos(static_cast<int64_t>(
                                            rng.UniformU64(static_cast<uint64_t>(
                                                (suspect_at - last).nanos()))));
    EXPECT_EQ(probe(fd, early), HealthTransition::kNone) << "round " << round;

    // The first Evaluate at or after the threshold transitions; landing it
    // anywhere in [suspect_at, dead_at) suspects.
    const fwbase::SimTime dead_at = last + fd.TimeToPhi(0, hc.phi_dead);
    ASSERT_LT(suspect_at, dead_at);
    const fwbase::SimTime suspect_eval =
        suspect_at + Duration::Nanos(static_cast<int64_t>(
                         rng.UniformU64(static_cast<uint64_t>((dead_at - suspect_at).nanos()))));
    ASSERT_EQ(fd.Evaluate(0, suspect_eval), HealthTransition::kSuspected) << "round " << round;
    ASSERT_EQ(fd.state(0), HealthState::kSuspect);

    // Suspect: due at the dead threshold.
    ASSERT_EQ(fd.DueTime(0), dead_at) << "round " << round;
    EXPECT_EQ(probe(fd, dead_at - one_ns), HealthTransition::kNone) << "round " << round;
    ASSERT_EQ(fd.Evaluate(0, dead_at), HealthTransition::kDied) << "round " << round;

    // Dead: nothing is ever due; only a heartbeat revives, and the revived
    // host is due at the suspect threshold again, measured from that beat
    // (the downtime gap is not an interval sample).
    EXPECT_EQ(fd.DueTime(0), fwbase::SimTime::Max());
    EXPECT_EQ(fd.Evaluate(0, dead_at + Duration::Seconds(3600)), HealthTransition::kNone);
    const fwbase::SimTime revived = dead_at + Duration::Millis(1 + rng.UniformU64(5000));
    ASSERT_EQ(fd.Heartbeat(0, revived, 0.0), HealthTransition::kReinstated);
    EXPECT_EQ(fd.DueTime(0), revived + fd.TimeToPhi(0, hc.phi_suspect));
    EXPECT_EQ(fd.TimeToPhi(0, hc.phi_suspect), suspect_at - last);
    EXPECT_EQ(probe(fd, fd.DueTime(0) - one_ns), HealthTransition::kNone);
    EXPECT_EQ(probe(fd, fd.DueTime(0)), HealthTransition::kSuspected);

    // Data-path death: nothing due until the next heartbeat.
    ASSERT_EQ(fd.ReportFailure(0), HealthTransition::kDied);
    EXPECT_EQ(fd.DueTime(0), fwbase::SimTime::Max());
  }
}

// ---------------------------------------------------------------------------
// Admission control + retry budget (admission.h).
// ---------------------------------------------------------------------------

TEST(AdmissionControllerTest, ShedsAtQueueCapacity) {
  AdmissionConfig ac;
  ac.queue_capacity = 2;
  AdmissionController adm(1, 4, ac);
  const fwbase::SimTime now = fwbase::SimTime::Zero();
  EXPECT_TRUE(adm.Admit(0, 1, now, fwbase::SimTime::Max()).ok());
  const Status s = adm.Admit(0, 2, now, fwbase::SimTime::Max());
  EXPECT_EQ(s.code(), fwbase::StatusCode::kResourceExhausted);
}

TEST(AdmissionControllerTest, ShedsWhenEstimatedWaitExceedsDeadline) {
  AdmissionConfig ac;  // initial service estimate 5ms
  ac.queue_capacity = 1000;
  AdmissionController adm(1, /*workers_per_host=*/1, ac);
  const fwbase::SimTime now = fwbase::SimTime::Zero();
  // Ten queued requests at ~5ms each on one worker: ~50ms of wait.
  EXPECT_EQ(adm.EstimatedWait(0, 10).nanos(), Duration::Millis(50).nanos());
  EXPECT_EQ(adm.Admit(0, 10, now, now + Duration::Millis(20)).code(),
            fwbase::StatusCode::kResourceExhausted);
  EXPECT_TRUE(adm.Admit(0, 10, now, now + Duration::Millis(100)).ok());
  // No deadline: only the hard cap sheds.
  EXPECT_TRUE(adm.Admit(0, 10, now, fwbase::SimTime::Max()).ok());
}

TEST(AdmissionControllerTest, ServiceEwmaTracksObservedTimes) {
  AdmissionConfig ac;
  AdmissionController adm(2, 1, ac);
  const Duration before = adm.EstimatedWait(0, 4);
  for (int i = 0; i < 20; ++i) {
    adm.RecordService(0, Duration::Millis(1));
  }
  EXPECT_LT(adm.EstimatedWait(0, 4).nanos(), before.nanos());
  // Per-host estimates are independent.
  EXPECT_EQ(adm.EstimatedWait(1, 4).nanos(), before.nanos());
}

TEST(AdmissionControllerTest, DisabledAdmitsEverything) {
  AdmissionConfig ac;
  ac.enabled = false;
  ac.queue_capacity = 1;
  AdmissionController adm(1, 1, ac);
  const fwbase::SimTime now = fwbase::SimTime::Zero();
  EXPECT_TRUE(adm.Admit(0, 1000, now, now + Duration::Millis(1)).ok());
}

TEST(RetryBudgetTest, ClampsRetriesAndRefillsOnAcceptedWork) {
  // 0.25 is exact in binary, so four deposits make exactly one token.
  RetryBudget budget(true, /*deposit_ratio=*/0.25, /*burst=*/2.0);
  // Ids out of order: app-b's table slot is created (full) by app-a's.
  const AppId kAppA = 3;
  const AppId kAppB = 1;
  // Buckets start at burst: two retries fit, the third is denied.
  EXPECT_TRUE(budget.TrySpend(kAppA));
  EXPECT_TRUE(budget.TrySpend(kAppA));
  EXPECT_FALSE(budget.TrySpend(kAppA));
  // Budgets are per app.
  EXPECT_TRUE(budget.TrySpend(kAppB));
  // Four accepted first attempts deposit one token.
  for (int i = 0; i < 4; ++i) {
    budget.OnAccepted(kAppA);
  }
  EXPECT_TRUE(budget.TrySpend(kAppA));
  EXPECT_FALSE(budget.TrySpend(kAppA));
}

TEST(RetryBudgetTest, DisabledBudgetAdmitsEveryRetry) {
  RetryBudget budget(false, 0.1, 1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(budget.TrySpend(0));
  }
}

// ---------------------------------------------------------------------------
// Hedging: tail shaving with exactly-once completions.
// ---------------------------------------------------------------------------

RunResult RunHedgedCluster(uint64_t seed, bool hedging) {
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 4; ++i) {
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, i, mc));
  }
  Cluster::Config cc;
  cc.policy = SchedulerPolicy::kLeastLoaded;
  cc.hedging = hedging;
  cc.hedge_min_delay = Duration::Millis(15);
  // Gray failure: 2% of invocations stall for ~200ms — exactly the tail
  // hedging exists to shave.
  cc.fault_plan.Set(fwfault::FaultKind::kHostSlowdown, 0.02);
  cc.fault_seed = seed;
  cc.slow_host_mean_delay = Duration::Millis(200);
  Cluster cluster(sim, std::move(hosts), cc);

  fwwork::LoadGenConfig lg;
  lg.arrival = ArrivalProcess::kPoisson;
  lg.rate_per_sec = 400.0;
  lg.num_apps = 4;
  lg.seed = seed;
  fwwork::LoadGen gen(lg);
  for (int a = 0; a < lg.num_apps; ++a) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("app-%d", a);
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  constexpr int kInvocations = 1500;
  sim.Spawn(DriveArrivals(sim, cluster, gen, kInvocations));
  cluster.Drain(kInvocations);

  RunResult r;
  r.digest = cluster.OutcomeDigest();
  r.rollup = cluster.ComputeRollup();
  // Exactly-once: every terminal request has exactly one recorded completion,
  // hedges or not.
  for (uint64_t id = 1; id <= r.rollup.submitted; ++id) {
    FW_CHECK(cluster.outcome(id).completions == 1);
  }
  return r;
}

TEST(ClusterHedgingTest, HedgesFireAndCompletionsStayExactlyOnce) {
  const RunResult r = RunHedgedCluster(11, /*hedging=*/true);
  EXPECT_EQ(r.rollup.completed, 1500u);
  EXPECT_EQ(r.rollup.failed, 0u);
  EXPECT_GT(r.rollup.hedges, 0u);
  EXPECT_LE(r.rollup.hedge_wins, r.rollup.hedges);
  // Each hedge dispatch makes a pair with exactly one surplus copy: the
  // hedge when the primary wins, the primary when the hedge wins. Either
  // way the surplus is discarded by the terminal check (at most one pair —
  // the very last — can still be in flight when Drain stops pumping).
  EXPECT_GE(r.rollup.hedge_discards + 1, r.rollup.hedges);
  EXPECT_LE(r.rollup.hedge_discards, r.rollup.hedges);
}

TEST(ClusterHedgingTest, HedgingIsDeterministic) {
  const RunResult a = RunHedgedCluster(23, /*hedging=*/true);
  const RunResult b = RunHedgedCluster(23, /*hedging=*/true);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.rollup.hedges, b.rollup.hedges);
  EXPECT_EQ(a.rollup.hedge_wins, b.rollup.hedge_wins);
}

TEST(ClusterHedgingTest, HedgingShavesTheSlowHostTail) {
  const RunResult off = RunHedgedCluster(31, /*hedging=*/false);
  const RunResult on = RunHedgedCluster(31, /*hedging=*/true);
  EXPECT_EQ(on.rollup.completed, off.rollup.completed);
  EXPECT_LT(on.rollup.latency_ms.Percentile(99.9), off.rollup.latency_ms.Percentile(99.9));
}

// ---------------------------------------------------------------------------
// App ids: every copy of a request keeps its app's per-app state.
// ---------------------------------------------------------------------------

// Submits `count` requests at a fixed pace, cycling through `names`.
fwsim::Co<void> SubmitCycling(fwsim::Simulation& sim, Cluster& cluster,
                              const std::vector<std::string>& names, int count) {
  for (int i = 0; i < count; ++i) {
    co_await fwsim::Delay(sim, Duration::Micros(2500));
    (void)cluster.Submit(names[static_cast<size_t>(i) % names.size()], "{}");
  }
}

TEST(ClusterAppIdTest, UninstalledAppFailsNotFoundAndCopiesKeepTheirApp) {
  fwsim::Simulation sim(5);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 4; ++i) {
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, i, mc));
  }
  Cluster::Config cc;
  cc.policy = SchedulerPolicy::kLeastLoaded;
  // Hedge copies (stalls past the hedge delay) and retried copies (a crash
  // bounces queued work and strands inflight work as zombies).
  cc.hedging = true;
  cc.hedge_min_delay = Duration::Millis(15);
  cc.fault_plan.Set(fwfault::FaultKind::kHostSlowdown, 0.05);
  cc.fault_seed = 5;
  cc.slow_host_mean_delay = Duration::Millis(200);
  Cluster cluster(sim, std::move(hosts), cc);
  // Installed out of name order, so AppIds and name order differ.
  for (const char* name : {"app-2", "app-0", "app-1"}) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = name;
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  const std::vector<std::string> names = {"app-0", "app-1", "ghost", "app-2"};
  constexpr int kInvocations = 1200;
  sim.Schedule(Duration::Millis(900), [&cluster] { cluster.CrashHost(1); });
  sim.Schedule(Duration::Millis(1600), [&cluster] { cluster.RestartHost(1); });
  sim.Spawn(SubmitCycling(sim, cluster, names, kInvocations));
  cluster.Drain(kInvocations);

  const Cluster::Rollup r = cluster.ComputeRollup();
  EXPECT_GT(r.hedges, 0u);
  EXPECT_GT(r.hedge_wins, 0u);
  EXPECT_GT(r.retries, 0u);
  // Per app: submissions, and completions good against the SLO target.
  std::map<std::string, uint64_t> submitted;
  std::map<std::string, uint64_t> good;
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    const Cluster::Outcome& out = cluster.outcome(id);
    EXPECT_EQ(out.completions, 1u);
    const std::string& name = cluster.app_name(out.app);
    ++submitted[name];
    if (name == "ghost") {
      EXPECT_EQ(out.status.code(), fwbase::StatusCode::kNotFound) << out.status.ToString();
    }
    if (out.status.ok() && out.latency <= cc.slo.target) {
      ++good[name];
    }
  }
  EXPECT_EQ(good["ghost"], 0u);
  // The SLO monitor is keyed by AppId: a hedged or retried copy recorded
  // under another app's id would move counts between these rows.
  const auto reports = cluster.slo().Reports();
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& report : reports) {
    SCOPED_TRACE(report.app);
    EXPECT_EQ(report.total, submitted[report.app]);
    EXPECT_EQ(report.good, good[report.app]);
  }
}

// ---------------------------------------------------------------------------
// Teardown.
// ---------------------------------------------------------------------------

fwsim::Co<void> SetFlag(bool* flag) {
  *flag = true;
  co_return;
}

// A FullHost cluster destroyed mid-run, before its Simulation: the frames of
// its in-flight restores hold snapshot images whose frames live in the
// hosts' memory, so they must be destroyed while the hosts still exist.
// Under ASan, destroying them only with the Simulation is a use-after-free.
TEST(ClusterTeardownTest, DestroyingClusterWithRestoresInFlightFreesTheirFrames) {
  for (const int run_ms : {4, 9, 15}) {
    SCOPED_TRACE(run_ms);
    fwsim::Simulation sim(11);
    {
      std::vector<std::unique_ptr<ClusterHost>> hosts;
      for (int i = 0; i < 2; ++i) {
        hosts.push_back(std::make_unique<FullHost>(sim, i, FullHost::Config()));
      }
      Cluster cluster(sim, std::move(hosts), Cluster::Config());
      const fwlang::FunctionSource fn =
          fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact, fwlang::Language::kNodeJs);
      ASSERT_TRUE(RunSync(sim, cluster.InstallAll(fn)).ok());
      for (int i = 0; i < 6; ++i) {
        (void)cluster.Submit(fn.name, "{}");
      }
      sim.RunFor(Duration::Millis(run_ms));
      EXPECT_LT(cluster.terminal(), cluster.submitted()) << "no request left in flight";
    }
    EXPECT_EQ(sim.live_roots(), 0u);
    // The Simulation outlives its owner and still runs new work.
    bool ran = false;
    sim.Spawn(SetFlag(&ran));
    sim.Run();
    EXPECT_TRUE(ran);
  }
}

// ---------------------------------------------------------------------------
// Drain guard.
// ---------------------------------------------------------------------------

TEST(ClusterDrainDeathTest, DrainBeyondWorkloadAbortsInsteadOfSpinning) {
  auto impossible_drain = [] {
    fwsim::Simulation sim(1);
    std::vector<std::unique_ptr<ClusterHost>> hosts;
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, 0, mc));
    Cluster::Config cc;
    cc.drain_stall_timeout = Duration::Seconds(2);
    Cluster cluster(sim, std::move(hosts), cc);
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = "app-0";
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
    (void)cluster.Submit("app-0", "{}");
    cluster.Drain(5);  // Only 1 request will ever exist.
  };
  EXPECT_DEATH(impossible_drain(), "stalled");
}

// The stall guard's boundary: progress landing at *exactly*
// drain_stall_timeout after the last progress must not abort (the comparison
// is strict), so the guard can never fire one tick early.
TEST(ClusterDrainDeathTest, ProgressAtExactlyTheStallTimeoutDoesNotAbort) {
  fwsim::Simulation sim(2);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  ModelHost::Config mc;
  mc.calibration = TestCalibration();
  hosts.push_back(std::make_unique<ModelHost>(sim, 0, mc));
  Cluster::Config cc;
  cc.drain_stall_timeout = Duration::Seconds(2);
  Cluster cluster(sim, std::move(hosts), cc);
  fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                  fwlang::Language::kNodeJs);
  fn.name = "app-0";
  FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  (void)cluster.Submit("app-0", "{}");
  while (cluster.terminal() < 1) {
    FW_CHECK(sim.StepOne());
  }
  const fwbase::SimTime last_progress = sim.Now();
  // The next submission arrives exactly drain_stall_timeout later — the
  // heartbeat/sampler events in between never reset the progress clock, so
  // this is the latest instant at which Drain may still accept progress.
  sim.Spawn([](fwsim::Simulation& s, Cluster& c, Duration gap) -> fwsim::Co<void> {
    co_await fwsim::Delay(s, gap);
    (void)c.Submit("app-0", "{}");
  }(sim, cluster, cc.drain_stall_timeout));
  cluster.Drain(2);  // Aborts the test (FW_CHECK) if the guard fires early.
  EXPECT_EQ(cluster.terminal(), 2u);
  EXPECT_GE(sim.Now() - last_progress, cc.drain_stall_timeout);
}

// …and progress at the boundary restarts the window: the abort then fires
// only once a *full further* timeout elapses, with the bookkeeping showing
// both requests were accepted before the guard tripped.
TEST(ClusterDrainDeathTest, BoundaryProgressRestartsTheStallWindow) {
  auto drain_past_reset = [] {
    fwsim::Simulation sim(3);
    std::vector<std::unique_ptr<ClusterHost>> hosts;
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, 0, mc));
    Cluster::Config cc;
    cc.drain_stall_timeout = Duration::Seconds(2);
    Cluster cluster(sim, std::move(hosts), cc);
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = "app-0";
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
    (void)cluster.Submit("app-0", "{}");
    while (cluster.terminal() < 1) {
      FW_CHECK(sim.StepOne());
    }
    sim.Spawn([](fwsim::Simulation& s, Cluster& c, Duration gap) -> fwsim::Co<void> {
      co_await fwsim::Delay(s, gap);
      (void)c.Submit("app-0", "{}");
    }(sim, cluster, cc.drain_stall_timeout));
    cluster.Drain(3);  // A third request never arrives.
  };
  // "2 submitted, 2 terminal" proves the boundary submission was accepted
  // (no early abort) and the guard fired a configured timeout after it.
  EXPECT_DEATH(drain_past_reset(),
               "Drain\\(3\\) stalled: 2 submitted, 2 terminal, and no progress for 2s");
}

// ---------------------------------------------------------------------------
// Maintained scheduler views (DESIGN.md §11): the cluster updates its host
// views where their inputs change and evaluates phi only for hosts that are
// due. Stepping a fault-heavy run event by event, the views must always
// equal a from-scratch recomputation from lifecycle + detector state, their
// alive totals must equal sums over them, and right after a dispatch no
// active host may still owe a transition (Evaluate on a copy of the
// detector at that instant changes nothing, so re-evaluating every host on
// every dispatch would have found exactly what the views already hold).
// ---------------------------------------------------------------------------

struct ViewCoverage {
  uint64_t checks = 0;
  uint64_t dispatch_checks = 0;
  bool saw_suspect = false;
  bool saw_pressured = false;
  bool saw_unschedulable = false;
};

void ExpectViewsMatchRecomputation(const Cluster& cluster, fwbase::SimTime now,
                                   bool just_dispatched, ViewCoverage& coverage) {
  const Cluster::ViewState state = cluster.view_state_for_testing();
  ASSERT_EQ(state.views.size(), static_cast<size_t>(cluster.num_hosts()));
  FailureDetector detector = cluster.detector();
  int alive_count = 0;
  int64_t alive_inflight = 0;
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    const HostView& got = state.views[static_cast<size_t>(h)];
    const bool active = cluster.lifecycle(h) == HostLifecycle::kActive;
    if (active && just_dispatched) {
      ASSERT_EQ(detector.Evaluate(h, now), HealthTransition::kNone)
          << "host " << h << " owed a transition at t=" << now.nanos();
    }
    ASSERT_EQ(got.alive, active && detector.state(h) != HealthState::kDead)
        << "host " << h << " t=" << now.nanos();
    ASSERT_EQ(got.suspect, active && detector.state(h) == HealthState::kSuspect)
        << "host " << h << " t=" << now.nanos();
    ASSERT_EQ(got.pressured, active && detector.pressured(h))
        << "host " << h << " t=" << now.nanos();
    ASSERT_EQ(got.zone, cluster.zone_of(h)) << "host " << h;
    ASSERT_GE(got.inflight, 0) << "host " << h << " t=" << now.nanos();
    if (cluster.lifecycle(h) == HostLifecycle::kRemoved) {
      ASSERT_EQ(got.inflight, 0) << "removed host " << h << " still has work";
    }
    if (got.alive) {
      ++alive_count;
      alive_inflight += got.inflight;
    }
    coverage.saw_suspect |= got.suspect;
    coverage.saw_pressured |= got.pressured;
    coverage.saw_unschedulable |= !active;
  }
  ASSERT_EQ(state.alive_count, alive_count) << "t=" << now.nanos();
  ASSERT_EQ(state.alive_inflight, alive_inflight) << "t=" << now.nanos();
  ++coverage.checks;
  coverage.dispatch_checks += just_dispatched ? 1 : 0;
}

TEST(ClusterViewsTest, MaintainedViewsEqualRecomputationThroughFaultsAndMembership) {
  fwsim::Simulation sim(fwtest::PerTestSeed());
  auto make_host = [](fwsim::Simulation& s, int index) -> std::unique_ptr<ClusterHost> {
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    if (index == 5) {
      mc.memory_bytes = 60e6;  // Brownout: a clone plus one instance cross 0.9.
    }
    return std::make_unique<ModelHost>(s, index, mc);
  };
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(make_host(sim, i));
  }
  Cluster::Config cc;
  cc.policy = SchedulerPolicy::kSnapshotLocality;
  cc.workers_per_host = 2;
  cc.num_zones = 3;
  cc.host_factory = make_host;
  cc.hedging = true;
  cc.hedge_min_delay = Duration::Millis(15);
  cc.admission.queue_capacity = 4;
  cc.admission.default_deadline = Duration::Millis(150);
  cc.distribution.enabled = true;
  // Suspect after ~230 ms of silence: shorter than a join's warm-up, so the
  // joiner crashed below is already overdue when it is admitted.
  cc.health.heartbeat_interval = Duration::Millis(50);
  cc.fault_plan.Set(fwfault::FaultKind::kHostSlowdown, 0.03);
  cc.fault_plan.Set(fwfault::FaultKind::kHeartbeatLoss, 0.4);
  cc.fault_seed = 99;
  cc.slow_host_mean_delay = Duration::Millis(150);
  Cluster cluster(sim, std::move(hosts), cc);

  fwwork::LoadGenConfig lg;
  lg.arrival = ArrivalProcess::kBursty;
  lg.rate_per_sec = 1200.0;
  lg.num_apps = 6;
  lg.seed = 99;
  fwwork::LoadGen gen(lg);
  for (int a = 0; a < lg.num_apps; ++a) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("app-%d", a);
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  // Faults and membership changes on a fixed schedule: a partition long
  // enough to take a host through suspect to dead and back, a crash and
  // restart, a join whose host crashes mid-warm-up (admitted silent, so
  // only phi can find it dead), a zone outage and one decommission.
  sim.Spawn([](fwsim::Simulation& s, Cluster& c) -> fwsim::Co<void> {
    co_await fwsim::Delay(s, Duration::Millis(400));
    c.PartitionHost(2, Duration::Millis(2500));
    co_await fwsim::Delay(s, Duration::Millis(300));
    c.CrashHost(4);
    co_await fwsim::Delay(s, Duration::Millis(500));
    const int joiner = c.AddHost();
    co_await fwsim::Delay(s, Duration::Millis(5));
    EXPECT_NE(c.lifecycle(joiner), HostLifecycle::kActive);
    c.CrashHost(joiner);
    co_await fwsim::Delay(s, Duration::Millis(500));
    c.RestartHost(4);
    c.KillZone(0);
    co_await fwsim::Delay(s, Duration::Millis(700));
    c.RestoreZone(0);
    c.RemoveHost(1);
    c.RestartHost(joiner);
  }(sim, cluster));
  constexpr int kInvocations = 5000;
  sim.Spawn(DriveArrivals(sim, cluster, gen, kInvocations));

  ViewCoverage coverage;
  uint64_t submitted = cluster.submitted();
  while (cluster.terminal() < kInvocations && sim.StepOne()) {
    // A step that submitted ran one Dispatch, and nothing after it at that
    // instant can have made a host due.
    const bool dispatched = cluster.submitted() != submitted;
    submitted = cluster.submitted();
    ExpectViewsMatchRecomputation(cluster, sim.Now(), dispatched, coverage);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  cluster.Drain(kInvocations);

  // The run exercised every input of the views.
  const Cluster::Rollup r = cluster.ComputeRollup();
  EXPECT_EQ(coverage.dispatch_checks, static_cast<uint64_t>(kInvocations));
  EXPECT_GT(coverage.checks, coverage.dispatch_checks);
  EXPECT_TRUE(coverage.saw_suspect);
  EXPECT_TRUE(coverage.saw_pressured);
  EXPECT_TRUE(coverage.saw_unschedulable);
  EXPECT_GT(r.suspects, 0u);
  EXPECT_GT(r.detector_deaths, 0u);
  EXPECT_GT(r.reinstated, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.hedges, 0u);
  EXPECT_GT(r.brownout_discards, 0u);
  EXPECT_EQ(r.hosts_added, 1u);
  EXPECT_EQ(r.hosts_removed, 1u);
  EXPECT_GT(r.distribution.cold_fetches, 0u);
  EXPECT_EQ(r.completed + r.failed, static_cast<uint64_t>(kInvocations));
}

// ---------------------------------------------------------------------------
// Rollup pin: one seeded scenario that drives every front-end counter, with
// exact values. A pure refactor of the cluster's bookkeeping must reproduce
// these numbers, and the registry's cluster.* counters must agree with the
// rollup for every statistic both report.
// ---------------------------------------------------------------------------

TEST(ClusterRollupPinTest, EveryCounterMatchesPinnedValuesAndTheRegistry) {
  fwsim::Simulation sim(4242);
  auto make_host = [](fwsim::Simulation& s, int index) -> std::unique_ptr<ClusterHost> {
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    if (index == 5) {
      // One small host: a parked clone plus a running instance cross the
      // brownout threshold, so its pool is shed under pressure.
      mc.memory_bytes = 60e6;
    }
    return std::make_unique<ModelHost>(s, index, mc);
  };
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(make_host(sim, i));
  }
  Cluster::Config cc;
  cc.policy = SchedulerPolicy::kLeastLoaded;
  cc.workers_per_host = 2;
  cc.num_zones = 3;
  cc.host_factory = make_host;
  cc.hedging = true;
  cc.hedge_min_delay = Duration::Millis(15);
  cc.admission.queue_capacity = 4;
  cc.admission.default_deadline = Duration::Millis(120);
  cc.fault_plan.Set(fwfault::FaultKind::kHostSlowdown, 0.03);
  cc.fault_plan.Set(fwfault::FaultKind::kHeartbeatLoss, 0.3);
  cc.fault_seed = 4242;
  cc.slow_host_mean_delay = Duration::Millis(150);
  Cluster cluster(sim, std::move(hosts), cc);

  fwwork::LoadGenConfig lg;
  lg.arrival = ArrivalProcess::kBursty;
  lg.rate_per_sec = 1500.0;
  lg.num_apps = 6;
  lg.seed = 4242;
  fwwork::LoadGen gen(lg);
  for (int a = 0; a < lg.num_apps; ++a) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("app-%d", a);
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  // Membership and zone events on a fixed schedule: a zone outage and its
  // recovery, one join, one decommission.
  sim.Spawn([](fwsim::Simulation& s, Cluster& c) -> fwsim::Co<void> {
    co_await fwsim::Delay(s, Duration::Millis(800));
    c.KillZone(1);
    co_await fwsim::Delay(s, Duration::Millis(600));
    (void)c.AddHost();
    co_await fwsim::Delay(s, Duration::Millis(600));
    c.RestoreZone(1);
    co_await fwsim::Delay(s, Duration::Millis(400));
    c.RemoveHost(0);
  }(sim, cluster));
  constexpr int kInvocations = 5000;
  sim.Spawn(DriveArrivals(sim, cluster, gen, kInvocations));
  cluster.Drain(kInvocations);

  const Cluster::Rollup r = cluster.ComputeRollup();
  EXPECT_EQ(cluster.OutcomeDigest(), 0x39b6c1596e1855a7ull);
  // Each statistic by its Rollup field and its registry counter,
  // cluster.<name>, against the pinned value.
  struct Pin {
    const char* name;
    uint64_t rollup;
    uint64_t want;
  };
  const Pin pins[] = {
      {"submitted", r.submitted, 5000},
      {"completed", r.completed, 4140},
      {"failed", r.failed, 860},
      {"retries", r.retries, 12},
      {"zombie_discards", r.zombie_discards, 4},
      {"shed", r.shed, 930},
      {"expired", r.expired, 38},
      {"retry_budget_denied", r.retry_budget_denied, 0},
      {"hedges", r.hedges, 151},
      {"hedge_wins", r.hedge_wins, 4},
      {"hedge_discards", r.hedge_discards, 150},
      {"suspects", r.suspects, 1},
      {"detector_deaths", r.detector_deaths, 2},
      {"reinstated", r.reinstated, 3},
      {"brownout_discards", r.brownout_discards, 24},
      {"hosts_added", r.hosts_added, 1},
      {"hosts_removed", r.hosts_removed, 1},
      {"zone_outages", r.zone_outages, 1},
  };
  const fwobs::MetricsRegistry& metrics = cluster.obs().metrics();
  for (const Pin& pin : pins) {
    EXPECT_EQ(pin.rollup, pin.want) << pin.name;
    EXPECT_EQ(metrics.CounterValue(std::string("cluster.") + pin.name), pin.want) << pin.name;
  }
  // warm_hits differs by definition: the rollup sums the hosts' own warm-hit
  // counts, the registry counts recorded completions during whose service
  // the host's count rose (a concurrent warm hit on the same host counts for
  // every request in flight there).
  EXPECT_EQ(r.warm_hits, 3237u);
  EXPECT_EQ(metrics.CounterValue("cluster.warm_hits"), 3387u);
}

}  // namespace
}  // namespace fwcluster
