// Multi-host Fireworks deployment on one shared discrete-event simulation.
//
// The Cluster owns N ClusterHosts (FullHost or ModelHost), a front-end
// Scheduler, per-host dispatch queues with a fixed worker-coroutine pool, a
// per-host × per-app warm-pool autoscaler, and cluster-level observability
// (metrics + spans rolled up across hosts).
//
// Request lifecycle: Submit() stamps the request (and its deadline), the
// front end picks a host (scheduler policy over *detected* host health, see
// health.h) and asks the admission controller (admission.h) whether the
// host's bounded dispatch queue can still meet the deadline; admitted
// requests enqueue, the rest are shed fast with kResourceExhausted. A worker
// coroutine runs the invocation on the host and records the outcome. The
// submit→completion latency therefore includes front-end queueing, which is
// where overload shows up in P99.9 — and where admission control converts a
// collapse into a plateau.
//
// Failure semantics (the chaos tests assert these):
//   * Liveness is detected, not known: hosts heartbeat into a phi-accrual
//     FailureDetector; data-path errors (bounced queues, stale-epoch
//     zombies) short-circuit detection. A suspect host is deprioritized, a
//     dead one excluded, and a heartbeat reinstates either. The front end
//     never consults the fault bookkeeping for placement; alive() exposes
//     it as ground truth for tests.
//   * CrashHost stops the host's heartbeats, bumps its epoch, and drops its
//     parked clones (they lived in host memory). Queued requests are bounced
//     back to the front end. In-flight invocations cannot be cancelled —
//     they drain as zombies whose results are discarded (stale epoch) and
//     the requests are retried on a surviving host, subject to the per-app
//     retry budget, so every accepted request reaches exactly one recorded
//     completion: retried, never duplicated.
//   * PartitionHost makes the host unreachable from the front end for a
//     duration: heartbeats stop arriving (the detector degrades it to
//     suspect, then dead) and responses of in-flight work are held until the
//     partition heals. Partitioned work is delayed, not retried (retrying
//     non-idempotent work during a partition would risk duplicate
//     completions).
//   * Hedging (off by default): after a quantile-based delay, a still-
//     inflight request is re-dispatched to a second host. The first recorded
//     completion wins; the loser is discarded by a terminal check on the
//     request, so completions stay exactly-once (DESIGN.md §11).
//
// Elastic fleet (DESIGN.md §16): membership is no longer fixed. AddHost()
// provisions a cold host that installs every app, pulls snapshots through
// the distribution tier, parks warm clones, and only then joins the
// scheduler ring; RemoveHost() drains a host (no new dispatch, warm pools
// replenished elsewhere, inflight work bled via the zombie-epoch machinery)
// and tears it down with zero leaks. Hosts group into zones; KillZone (or
// the zone_outage fault kind) fails a whole zone at once and the survivors
// absorb the redirected load under admission control. With Config::fleet
// enabled, a capacity autoscaler grows and shrinks the host count from the
// same Little's-law signals the warm-pool autoscaler uses.
//
// Statistics: every cluster.* counter in obs().metrics() is the only store
// of its statistic (resolved once, at construction); Rollup is a view over
// those counters plus the hosts' own figures. Control-loop settings that no
// deployment tunes (autoscaler cadence and smoothing, retry budget shape,
// hedge trigger window) are named constants in cluster.cc.
#ifndef FIREWORKS_SRC_CLUSTER_CLUSTER_H_
#define FIREWORKS_SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/cluster/admission.h"
#include "src/cluster/app_id.h"
#include "src/cluster/fleet_manager.h"
#include "src/cluster/health.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/cluster/slo.h"
#include "src/cluster/snapshot_distribution.h"
#include "src/fault/fault.h"
#include "src/obs/observability.h"
#include "src/simcore/primitives.h"
#include "src/simcore/simulation.h"

namespace fwcluster {

class Cluster {
 public:
  struct Config {
    Config() {}

    SchedulerPolicy policy = SchedulerPolicy::kSnapshotLocality;
    // Dispatch worker coroutines per host: the host-level concurrency cap.
    int workers_per_host = 32;

    // Warm-pool autoscaler: per host × app, target pool size from Little's
    // law over an EWMA of the observed per-app arrival rate at that host.
    bool autoscale = true;

    // Per-app latency SLO + multi-window burn-rate alerting (slo.h). Always
    // on: recording is pure bookkeeping off outcomes the front end already
    // tracks, and benches read the attainment out of the rollup.
    SloConfig slo;

    // --- Overload control & health (DESIGN.md §11) -----------------------
    // Heartbeat-driven failure detection.
    HealthConfig health;
    // Bounded dispatch queues + deadline-aware shedding at enqueue.
    AdmissionConfig admission;
    // Per-app token-bucket retry budget (crash-recovery retries spend one
    // token; accepted first attempts deposit a fraction of one).
    bool retry_budget = true;
    // Tail-latency hedging: after max(hedge_min_delay, the recent P99
    // latency), re-dispatch a still-inflight request to a second host. First
    // recorded completion wins.
    bool hedging = false;
    Duration hedge_min_delay = Duration::Millis(20);
    // Snapshot distribution tier (DESIGN.md §13): registry + per-host chunk
    // caches + peer fetch + REAP working-set restore. Off by default — every
    // host is then assumed to hold every snapshot, the pre-tier model.
    DistributionConfig distribution;
    // Cluster-level fault injection (heartbeat_loss, host_slowdown,
    // chunk_corruption, registry_unreachable). The
    // default empty plan is inert: no randomness is drawn.
    fwfault::FaultPlan fault_plan;
    uint64_t fault_seed = 777;
    // Mean of the exponential stall injected per host_slowdown trip.
    Duration slow_host_mean_delay = Duration::Millis(100);
    // Drain() aborts after this much simulated time without a new submission
    // or terminal outcome (see Drain()).
    Duration drain_stall_timeout = Duration::Seconds(120);

    // --- Elastic fleet & zones (DESIGN.md §16) ---------------------------
    // Failure domains: initial host i lives in zone i % num_zones; hosts
    // added later join the least-populated zone. One zone = the pre-zone
    // model (everything at zone 0, no spreading). With >= 2 zones and the
    // autoscaler on, a ZoneSpreader loop keeps at least one warm clone of
    // every traffic-bearing app in a second zone (per
    // Scheduler::WarmTargets), so a zone outage leaves warm capacity.
    int num_zones = 1;
    // Host-count autoscaling (fleet_manager.h). Requires host_factory.
    FleetConfig fleet;
    // Builds host number `index` for fleet growth; also used by AddHost()
    // when no host is passed explicitly. Must schedule on `sim`.
    std::function<std::unique_ptr<ClusterHost>(fwsim::Simulation&, int index)>
        host_factory;
    // zone_outage fault kind: polled every check interval; each trip kills
    // one whole zone (round-robin over zones) and restores it after
    // zone_outage_duration.
    Duration zone_outage_check_interval = Duration::Seconds(1);
    Duration zone_outage_duration = Duration::Seconds(5);
  };

  // Front-end dispatch attempts per request (crash recovery), counting the
  // first try.
  static constexpr int kMaxAttempts = 4;

  // `hosts` are indexed by position; each must already schedule on `sim`.
  Cluster(fwsim::Simulation& sim, std::vector<std::unique_ptr<ClusterHost>> hosts,
          const Config& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Installs `fn` on every host (apps can be scheduled anywhere).
  fwsim::Co<Status> InstallAll(const fwlang::FunctionSource& fn);

  // Accepts one invocation request at the current simulated time and returns
  // its request id (1-based, dense). `deadline` is the request's end-to-end
  // latency budget; zero falls back to admission.default_deadline, and zero
  // again means no deadline (shedding then only happens on the queue cap).
  // A name never installed still gets an AppId and is dispatched; its
  // invocation then fails kNotFound on the host.
  uint64_t Submit(const std::string& fn_name, const std::string& args,
                  Duration deadline = Duration::Zero());

  // Pumps the shared simulation until `until_terminal` requests have reached
  // a terminal state (completed, failed, or shed), then stops background
  // services. Aborts (FW_CHECK) if the run stops making progress — e.g.
  // until_terminal exceeds what the workload will ever submit — instead of
  // spinning forever on the background services' event stream.
  void Drain(uint64_t until_terminal);
  // Drains everything submitted so far.
  void DrainAll() { Drain(submitted()); }
  // Stops the autoscaler/heartbeat/sampler loops so the event queue can
  // empty.
  void Shutdown();

  // --- Fault operations ----------------------------------------------------
  void CrashHost(int host);
  void RestartHost(int host);
  void PartitionHost(int host, Duration duration);
  // Crashes every alive host in `zone` at the current instant (correlated
  // failure — one failure domain lost); RestoreZone restarts every host the
  // outage took down. Permanently removed hosts stay removed.
  void KillZone(int zone);
  void RestoreZone(int zone);

  // --- Elastic fleet (DESIGN.md §16) ---------------------------------------
  // Provisions a cold host into `zone` (or the least-populated zone when
  // negative). The host installs every app, warms its snapshot caches and
  // parks one warm clone per app, and only then joins the
  // scheduler ring. Returns the new host index immediately; admission
  // happens asynchronously on the simulation. Uses `host` when given, else
  // Config::host_factory.
  int AddHost(std::unique_ptr<ClusterHost> host = nullptr, int zone = -1);
  // Decommissions a host: leaves the scheduler ring at once (no new
  // dispatch), replenishes its warm capacity on ring successors, bleeds
  // inflight work, then tears everything down (VMs, netns, parked clones).
  void RemoveHost(int host);

  HostLifecycle lifecycle(int i) const { return hosts_[i]->lifecycle; }
  int zone_of(int i) const { return hosts_[i]->zone; }
  int num_zones() const { return config_.num_zones; }
  // Hosts currently dispatchable (lifecycle kActive and alive).
  int active_hosts() const;
  // Distinct zones with at least one active alive host.
  int zones_alive() const;
  // Cumulative provisioned host-time (capacity cost) up to now.
  double HostHours() const;

  // --- Results -------------------------------------------------------------
  struct Outcome {
    Outcome() {}

    AppId app = 0;        // The function; its name is app_name(app).
    Status status;        // Terminal status of the request.
    int host = -1;        // Host that served the recorded completion.
    int attempts = 1;     // Dispatch attempts (1 = no retry).
    Duration latency;     // Submit → recorded completion.
    Duration startup;
    Duration exec;
    bool warm_hit = false;
    // Guest-minted request id (DESIGN.md §15). 0 when the host model does not
    // run a real guest (ModelHost fabricates results without exec stats).
    uint64_t request_id = 0;
    uint64_t completions = 0;  // Recorded completions; exactly-once ⇒ 1.
  };

  struct Rollup {
    Rollup() {}

    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t retries = 0;
    uint64_t zombie_discards = 0;
    uint64_t warm_hits = 0;
    // Overload control & health (failed includes shed + expired).
    uint64_t shed = 0;             // Rejected at enqueue (admission).
    uint64_t expired = 0;          // Deadline already blown at dequeue.
    uint64_t retry_budget_denied = 0;
    uint64_t hedges = 0;           // Hedge copies dispatched.
    uint64_t hedge_wins = 0;       // Completions recorded from a hedge copy.
    uint64_t hedge_discards = 0;   // Surplus copies dropped post-terminal.
    uint64_t suspects = 0;         // alive→suspect transitions.
    uint64_t detector_deaths = 0;  // →dead transitions (phi or data-path).
    uint64_t reinstated = 0;       // suspect/dead→alive (heartbeat).
    uint64_t brownout_discards = 0;  // Warm clones shed under pressure.
    fwbase::SampleStats latency_ms;     // Completed requests only.
    fwbase::SampleStats startup_ms;
    double peak_pss_bytes = 0.0;
    uint64_t peak_live_vms = 0;
    // SLO health (slo.h): a request is "good" when it completes OK within
    // Config::slo.target; attainment is good/total across every terminal
    // outcome, worst_attainment the minimum per-app value.
    uint64_t slo_total = 0;
    uint64_t slo_good = 0;
    uint64_t slo_alerts = 0;
    double slo_attainment = 1.0;
    double slo_worst_attainment = 1.0;
    // Elastic fleet (zero in a static single-zone deployment).
    uint64_t hosts_added = 0;    // AddHost() provisions (manual + autoscaled).
    uint64_t hosts_removed = 0;  // RemoveHost() decommissions.
    uint64_t zone_outages = 0;   // zone_outage fault trips.
    double host_hours = 0.0;     // Provisioned host-time at rollup time.
    // Snapshot distribution tier counters (zero when the tier is disabled).
    DistributionStats distribution;
  };

  // Outcome of request `id` (valid once terminal).
  const Outcome& outcome(uint64_t id) const;
  // The function name behind an AppId (from Outcome::app).
  const std::string& app_name(AppId app) const { return apps_.Name(app); }
  uint64_t submitted() const { return outcomes_.size(); }
  uint64_t terminal() const { return counters_.completed.value() + counters_.failed.value(); }
  Rollup ComputeRollup() const;

  // Order-insensitive digest of every terminal outcome (id, host, attempts,
  // latency): equal digests ⇒ the two runs scheduled and timed identically.
  uint64_t OutcomeDigest() const;

  ClusterHost& host(int i) { return *hosts_[i]->host; }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  // Ground truth (the fault bookkeeping), not the detector's belief; tests
  // compare the two.
  bool alive(int i) const { return hosts_[i]->alive; }
  // The failure detector's view: what placement acts on.
  const FailureDetector& detector() const { return health_; }
  // The maintained scheduler views and their alive totals, for tests that
  // check them against a from-scratch recomputation. Health bits reflect
  // the detector as of the last placement decision (see Dispatch).
  struct ViewState {
    const std::vector<HostView>& views;
    int alive_count;
    int64_t alive_inflight;
  };
  ViewState view_state_for_testing() const {
    return ViewState{views_, alive_count_, alive_inflight_};
  }
  // Cluster-level observability (per-host metrics live on each FullHost's
  // own HostEnv). Enable obs().tracer() for cluster spans, obs().profiler()
  // for sim/wall hot-scope attribution (the ctor hooks it into the shared
  // Simulation's dispatch path).
  fwobs::Observability& obs() { return obs_; }
  // SLO attainment + burn-rate alerting state (read-only; fed internally).
  const SloMonitor& slo() const { return slo_; }
  // The snapshot distribution tier; nullptr when Config::distribution is
  // disabled.
  const SnapshotDistribution* distribution() const { return distribution_.get(); }

 private:
  struct Request {
    uint64_t id = 0;
    AppId app = 0;  // The function; its name is apps_.Name(app).
    std::string args;
    int attempts = 1;
    fwbase::SimTime submitted;
    // Absolute deadline (Max = none): admission sheds against it at enqueue,
    // workers drop against it at dequeue.
    fwbase::SimTime deadline = fwbase::SimTime::Max();
    // True for the second copy of a hedged request: its failures are dropped
    // silently (the primary drives retries and terminal failure).
    bool hedge = false;
  };

  struct HostState {
    std::unique_ptr<ClusterHost> host;
    std::unique_ptr<fwsim::Channel<Request>> queue;
    bool alive = true;
    uint64_t epoch = 0;
    // Failure domain (fixed at provision time) and lifecycle stage
    // (DESIGN.md §16). Only kActive hosts take new dispatch; the scheduler
    // ring holds exactly the kActive set.
    int zone = 0;
    HostLifecycle lifecycle = HostLifecycle::kActive;
    fwbase::SimTime partitioned_until;
    // When this host's entry in health_due_ falls due; Max when it has none.
    fwbase::SimTime health_due = fwbase::SimTime::Max();
    // Autoscaler state, indexed by AppId (sized to every interned app):
    // arrivals since the last tick and the rate EWMA.
    std::vector<uint64_t> arrivals;
    std::vector<double> rate_ewma;
    // Clone preparations currently in flight, by AppId (so a slow prepare
    // is not double-counted into the next tick's deficit).
    std::vector<int> preparing;
    // EWMA of observed PrepareClone wall time, for the Little's-law target.
    double prepare_seconds_ewma = 0.05;
  };

  // The AppId of `name`, assigning the next one (and growing every per-app
  // table) on first sight. One hash lookup.
  AppId Intern(const std::string& name);
  // Appends a host's front-end state and opens its ledger interval; returns
  // its index.
  int NewHostState(std::unique_ptr<ClusterHost> host, int zone, HostLifecycle lifecycle);
  // Spawns a host's dispatch workers, warm-pool autoscaler and heartbeater.
  void SpawnHostServices(int host_index);
  // Runs the detector's Evaluate on every active host whose DueTime has
  // come, so views_ shows what a poll of the detector at this instant would
  // (suspect/dead transitions happen at observation time, as they would in
  // a control plane polling its detector). Called before every read of the
  // views for a decision: placement, drain migration, zone spreading.
  void EvaluateDueHosts();
  // Re-derives host h's health bits in views_ from its lifecycle and the
  // detector, keeping the alive totals in step, and queues an active host
  // for evaluation at the detector's DueTime. Called wherever either input
  // changes.
  void SyncHost(int host_index);
  // Adds `delta` to host h's inflight count (its only store).
  void AddInflight(int host_index, int64_t delta);
  // True once the request has a recorded terminal outcome; the losing copy
  // of a hedged pair checks this before recording anything.
  bool Terminal(uint64_t id) const { return outcomes_[id - 1].completions > 0; }
  // Front-end placement; records a failed outcome when no host is available
  // or admission sheds the request. `exclude_host` (>= 0) is skipped when
  // any other alive host exists — retries avoid the host that just failed,
  // hedges avoid the primary's host.
  void Dispatch(Request req, int exclude_host = -1);
  // Retry after a crash bounce / zombie discard: spends retry budget,
  // respects kMaxAttempts.
  void RetryRequest(Request req, int failed_host);
  void RecordFailure(const Request& req, Status status);
  void RecordCompletion(const Request& req, const fwcore::InvocationResult& result,
                        int host_index, bool warm_hit);
  // Applies the outcome of a detector call on host h: counts the
  // transition, then re-syncs the host (SyncHost).
  void ApplyHealth(int host_index, HealthTransition transition);
  double PssFraction(int host_index) const;
  // Quantile-based hedge trigger delay (hedge_min_delay until enough
  // completions have been observed).
  Duration HedgeDelay() const;
  fwsim::Co<void> Worker(int host_index);
  fwsim::Co<void> Heartbeater(int host_index);
  // Spawned once per request by Submit(), so a request is hedged at most once.
  fwsim::Co<void> Hedger(uint64_t id, AppId app, std::string args,
                         fwbase::SimTime submitted, fwbase::SimTime deadline);
  fwsim::Co<void> Autoscaler(int host_index);
  // One concurrent clone preparation; discards the clone if the host crashed
  // while it was being prepared (its memory is gone).
  fwsim::Co<void> PrepareOne(int host_index, AppId app, uint64_t epoch);
  fwsim::Co<void> Sampler();
  // Whether host i may take new dispatch (lifecycle kActive; liveness is the
  // detector's call, not this one's).
  bool Schedulable(int host_index) const {
    return hosts_[host_index]->lifecycle == HostLifecycle::kActive;
  }
  // Installs every app + one state-machine coroutine per elastic concern.
  // JoinWarmup: cold host → install apps → snapshot fetch + warm clones →
  // admit to ring (kJoining → kWarming → kActive).
  fwsim::Co<void> JoinWarmup(int host_index, uint64_t epoch);
  // DrainAndRemove: replenish warm capacity elsewhere, wait out inflight,
  // tear down (kDraining → kRemoved).
  fwsim::Co<void> DrainAndRemove(int host_index);
  // Keeps every traffic-bearing app's warm capacity spread over >= 2 zones
  // (gated: only spawned with num_zones > 1 and autoscale).
  fwsim::Co<void> ZoneSpreader();
  // Host-count autoscaler (gated on Config::fleet.enabled + host_factory).
  fwsim::Co<void> FleetAutoscaler();
  // Polls the fault plan for zone_outage trips (gated on the plan).
  fwsim::Co<void> ZoneOutageLoop();
  fwsim::Co<void> RestoreZoneAfter(int zone, fwbase::Duration delay);

  // The cluster.* registry counters, resolved once: each is the only store of
  // its statistic, and ComputeRollup() reads them.
  struct Counters {
    explicit Counters(fwobs::MetricsRegistry& metrics);

    fwobs::Counter &submitted, &completed, &failed, &retries, &zombie_discards;
    fwobs::Counter& warm_hits;  // Recorded completions seen as warm.
    fwobs::Counter &shed, &expired, &retry_budget_denied;
    fwobs::Counter &hedges, &hedge_wins, &hedge_discards;
    fwobs::Counter &suspects, &detector_deaths, &reinstated, &brownout_discards;
    fwobs::Counter &host_crashes, &host_restarts, &host_partitions, &zone_outages;
    fwobs::Counter &hosts_added, &hosts_admitted, &hosts_removed, &hosts_decommissioned;
  };

  // The gauges Sampler() sets every tick, resolved at its first tick.
  struct SampledGauges {
    explicit SampledGauges(fwobs::MetricsRegistry& metrics);

    fwobs::Gauge &pss_bytes, &live_vms;
    fwobs::Gauge &hosts_alive, &hosts_active, &zones_alive;
    fwobs::Gauge &queue_depth, &inflight, &warm_hits;
  };

  fwsim::Simulation& sim_;
  Config config_;
  fwobs::Observability obs_;
  Counters counters_;
  SloMonitor slo_;
  fwobs::ProfScopeId dispatch_scope_ = 0;
  fwobs::ProfScopeId invoke_scope_ = 0;
  std::unique_ptr<Scheduler> scheduler_;
  FailureDetector health_;
  AdmissionController admission_;
  RetryBudget retry_budget_;
  fwfault::FaultInjector injector_;
  std::unique_ptr<SnapshotDistribution> distribution_;
  // Heap-allocated so references held across AddHost() stay stable: worker
  // and autoscaler coroutines bind HostState& for their whole lifetime, and
  // push_back only moves the unique_ptrs.
  std::vector<std::unique_ptr<HostState>> hosts_;
  // One scheduler view per host, kept up to date where its inputs change
  // (inflight, lifecycle, detector state) instead of being rebuilt per
  // dispatch; views_[h].inflight is the only store of host h's inflight
  // count. alive_count_/alive_inflight_ are the number of alive views and
  // their summed inflight, the bounded-load mean's inputs.
  std::vector<HostView> views_;
  int alive_count_ = 0;
  int64_t alive_inflight_ = 0;
  // Min-heap of (due time, host) over active hosts' detector DueTimes. An
  // entry whose time no longer matches the host's health_due is stale and
  // skipped.
  using HealthCheck = std::pair<fwbase::SimTime, int>;
  std::priority_queue<HealthCheck, std::vector<HealthCheck>, std::greater<HealthCheck>>
      health_due_;
  // Interned function names; the distribution tier reads the same table.
  AppTable apps_;
  std::vector<AppId> installed_;  // Install order (autoscaler iteration).
  // Copies of every installed function, so a host provisioned after
  // InstallAll can run the same install sequence during its join warm-up.
  std::vector<fwlang::FunctionSource> installed_sources_;
  bool running_ = true;

  std::unique_ptr<FleetPlanner> fleet_planner_;  // Only with fleet.enabled.
  FleetLedger fleet_ledger_;
  // Cluster-level Little's-law signals for the fleet planner: arrivals since
  // the last fleet tick and an EWMA of observed service time (the same
  // signal the admission controller keeps per host, aggregated).
  uint64_t fleet_tick_arrivals_ = 0;
  double service_seconds_ewma_ = 0.05;
  // Per-app arrivals since the last ZoneSpreader tick, and the rate EWMAs it
  // maintains, indexed by AppId.
  std::vector<uint64_t> spread_arrivals_;
  std::vector<double> spread_rate_ewma_;
  // Indexed by request id - 1. A deque, so Submit never relocates earlier
  // outcomes; one entry per submitted request, the run's result table rather
  // than a dispatch queue (admission bounds what is in flight).
  std::deque<Outcome> outcomes_;  // fwlint:allow(unbounded-queue)
  std::vector<int> primary_host_;  // Last host the primary copy went to.
  // Ring of the most recent completed latencies, feeding HedgeDelay(). The
  // hedge trigger must track the *current* tail: a cumulative quantile stays
  // poisoned by a past overload episode long after the fleet recovers,
  // pinning the delay above any real straggler so hedges never fire.
  std::vector<double> recent_latency_ms_;
  size_t recent_latency_next_ = 0;
  fwbase::SampleStats latency_ms_;
  fwbase::SampleStats startup_ms_;
  double peak_pss_bytes_ = 0.0;
  uint64_t peak_live_vms_ = 0;
};

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_CLUSTER_H_
