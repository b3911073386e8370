#include "src/cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "src/base/check.h"
#include "src/base/strings.h"

namespace fwcluster {
namespace {

// Sampling period for the cluster-wide memory/density gauges, the fleet-wide
// rollup gauges, the SLO monitor's bucket ring, and the drain poll.
constexpr Duration kSampleInterval = Duration::Millis(250);

// Warm-pool autoscaler: every tick, per host × app, the target pool is
// Little's law over an EWMA of the observed arrival rate, with headroom,
// capped per app. The zone spreader ticks and smooths at the same cadence.
constexpr Duration kAutoscaleInterval = Duration::Seconds(1);
constexpr double kAutoscaleEwmaAlpha = 0.3;
constexpr double kAutoscaleSafety = 1.5;
constexpr int kMaxPoolPerApp = 8;

// Warm clones parked per app during a cold host's join warm-up, before the
// host is admitted to the scheduler ring.
constexpr int kJoinWarmClones = 1;

// Retry budget: each accepted first attempt deposits this fraction of a
// retry token, up to the burst.
constexpr double kRetryBudgetRatio = 0.1;
constexpr double kRetryBudgetBurst = 10.0;

// Hedge trigger: the kHedgeQuantile latency over the last kHedgeWindow
// completions (hedge_min_delay until kHedgeMinSamples have been seen). The
// window keeps the delay on the current tail instead of leaving it inflated
// by every overload episode the run has ever seen.
constexpr double kHedgeQuantile = 99.0;
constexpr int64_t kHedgeMinSamples = 50;
constexpr size_t kHedgeWindow = 1024;

// Folds one autoscale tick's arrivals of `app` into its rate EWMA (per
// second) and returns the new value.
double TickRateEwma(const std::vector<uint64_t>& arrivals, std::vector<double>& rate_ewma,
                    AppId app) {
  const double observed = static_cast<double>(arrivals[app]) / kAutoscaleInterval.seconds();
  double& ewma = rate_ewma[app];
  ewma = kAutoscaleEwmaAlpha * observed + (1.0 - kAutoscaleEwmaAlpha) * ewma;
  return ewma;
}

}  // namespace

Cluster::Counters::Counters(fwobs::MetricsRegistry& metrics)
    : submitted(metrics.GetCounter("cluster.submitted")),
      completed(metrics.GetCounter("cluster.completed")),
      failed(metrics.GetCounter("cluster.failed")),
      retries(metrics.GetCounter("cluster.retries")),
      zombie_discards(metrics.GetCounter("cluster.zombie_discards")),
      warm_hits(metrics.GetCounter("cluster.warm_hits")),
      shed(metrics.GetCounter("cluster.shed")),
      expired(metrics.GetCounter("cluster.expired")),
      retry_budget_denied(metrics.GetCounter("cluster.retry_budget_denied")),
      hedges(metrics.GetCounter("cluster.hedges")),
      hedge_wins(metrics.GetCounter("cluster.hedge_wins")),
      hedge_discards(metrics.GetCounter("cluster.hedge_discards")),
      suspects(metrics.GetCounter("cluster.suspects")),
      detector_deaths(metrics.GetCounter("cluster.detector_deaths")),
      reinstated(metrics.GetCounter("cluster.reinstated")),
      brownout_discards(metrics.GetCounter("cluster.brownout_discards")),
      host_crashes(metrics.GetCounter("cluster.host_crashes")),
      host_restarts(metrics.GetCounter("cluster.host_restarts")),
      host_partitions(metrics.GetCounter("cluster.host_partitions")),
      zone_outages(metrics.GetCounter("cluster.zone_outages")),
      hosts_added(metrics.GetCounter("cluster.hosts_added")),
      hosts_admitted(metrics.GetCounter("cluster.hosts_admitted")),
      hosts_removed(metrics.GetCounter("cluster.hosts_removed")),
      hosts_decommissioned(metrics.GetCounter("cluster.hosts_decommissioned")) {}

Cluster::SampledGauges::SampledGauges(fwobs::MetricsRegistry& metrics)
    : pss_bytes(metrics.GetGauge("cluster.pss_bytes")),
      live_vms(metrics.GetGauge("cluster.live_vms")),
      hosts_alive(metrics.GetGauge("fleet.hosts.alive")),
      hosts_active(metrics.GetGauge("fleet.hosts.active")),
      zones_alive(metrics.GetGauge("fleet.zones.alive")),
      queue_depth(metrics.GetGauge("fleet.queue.depth")),
      inflight(metrics.GetGauge("fleet.inflight")),
      warm_hits(metrics.GetGauge("fleet.warm_hits")) {}

Cluster::Cluster(fwsim::Simulation& sim, std::vector<std::unique_ptr<ClusterHost>> hosts,
                 const Config& config)
    : sim_(sim),
      config_(config),
      obs_([this] { return sim_.Now(); }),
      counters_(obs_.metrics()),
      slo_(config.slo, kSampleInterval, &obs_),
      scheduler_(MakeScheduler(config.policy, static_cast<int>(hosts.size()))),
      health_(static_cast<int>(hosts.size()), config.health, sim.Now()),
      admission_(static_cast<int>(hosts.size()), config.workers_per_host,
                 config.admission),
      retry_budget_(config.retry_budget, kRetryBudgetRatio, kRetryBudgetBurst),
      injector_(sim, config.fault_plan, config.fault_seed) {
  FW_CHECK(!hosts.empty());
  FW_CHECK(config.workers_per_host > 0);
  // Attribute the shared simulation's dispatch cost to the cluster profiler
  // (disabled by default: one branch per event until someone Enables it).
  sim_.set_profiler(&obs_.profiler());
  dispatch_scope_ = obs_.profiler().RegisterScope("cluster.dispatch");
  invoke_scope_ = obs_.profiler().RegisterScope("cluster.worker.invoke");
  if (config.distribution.enabled) {
    distribution_ = std::make_unique<SnapshotDistribution>(
        sim, static_cast<int>(hosts.size()), config.distribution, obs_, &injector_, apps_);
  }
  FW_CHECK(config.num_zones >= 1);
  hosts_.reserve(hosts.size());
  for (size_t i = 0; i < hosts.size(); ++i) {
    // Initial hosts stripe over the zones; later joins fill the emptiest.
    (void)NewHostState(std::move(hosts[i]), static_cast<int>(i) % config_.num_zones,
                       HostLifecycle::kActive);
  }
  for (int i = 0; i < num_hosts(); ++i) {
    SpawnHostServices(i);
  }
  sim_.Spawn(Sampler());
  // Every elastic-fleet service is gated so a default config spawns nothing
  // extra and stays event-for-event identical to the pre-fleet cluster.
  if (config_.fleet.enabled) {
    FW_CHECK_MSG(config_.host_factory != nullptr,
                 "Config::fleet.enabled requires Config::host_factory");
    fleet_planner_ =
        std::make_unique<FleetPlanner>(config_.fleet, config_.workers_per_host);
    sim_.Spawn(FleetAutoscaler());
  }
  if (config_.num_zones > 1 && config_.autoscale) {
    sim_.Spawn(ZoneSpreader());
  }
  if (config_.fault_plan.spec(fwfault::FaultKind::kZoneOutage).enabled()) {
    sim_.Spawn(ZoneOutageLoop());
  }
}

Cluster::~Cluster() {
  Shutdown();
  // Requests still in flight are suspended frames that reference the hosts
  // (a restore holds its snapshot image, whose frames live in the host's
  // memory); they must die before hosts_ does.
  sim_.DestroyRoots();
  sim_.set_profiler(nullptr);
}

void Cluster::Shutdown() { running_ = false; }

int Cluster::NewHostState(std::unique_ptr<ClusterHost> host, int zone,
                          HostLifecycle lifecycle) {
  const int index = num_hosts();
  auto hs = std::make_unique<HostState>();
  hs->host = std::move(host);
  hs->queue = std::make_unique<fwsim::Channel<Request>>(sim_);
  hs->zone = zone;
  hs->lifecycle = lifecycle;
  hs->arrivals.resize(apps_.size());
  hs->rate_ewma.resize(apps_.size());
  hs->preparing.resize(apps_.size());
  hosts_.push_back(std::move(hs));
  HostView view;
  view.alive = false;  // SyncHost counts the host in if it is alive.
  view.zone = zone;
  views_.push_back(view);
  SyncHost(index);
  fleet_ledger_.OnProvision(index, sim_.Now());
  return index;
}

AppId Cluster::Intern(const std::string& name) {
  const size_t before = apps_.size();
  const AppId app = apps_.Intern(name);
  if (apps_.size() > before) {
    const size_t n = apps_.size();
    for (const auto& hs : hosts_) {
      hs->arrivals.resize(n);
      hs->rate_ewma.resize(n);
      hs->preparing.resize(n);
    }
    spread_arrivals_.resize(n);
    spread_rate_ewma_.resize(n);
  }
  return app;
}

void Cluster::SpawnHostServices(int host_index) {
  for (int w = 0; w < config_.workers_per_host; ++w) {
    sim_.Spawn(Worker(host_index));
  }
  if (config_.autoscale) {
    sim_.Spawn(Autoscaler(host_index));
  }
  sim_.Spawn(Heartbeater(host_index));
}

fwsim::Co<Status> Cluster::InstallAll(const fwlang::FunctionSource& fn) {
  for (size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i]->lifecycle == HostLifecycle::kRemoved) {
      continue;  // Decommissioned capacity installs nothing.
    }
    Status s = co_await hosts_[i]->host->Install(fn);
    if (!s.ok()) {
      co_return s;
    }
  }
  const AppId app = Intern(fn.name);
  installed_.push_back(app);
  // Retained so a host provisioned later can replay the same installs
  // during its join warm-up.
  installed_sources_.push_back(fn);
  if (distribution_ != nullptr) {
    // Publish the snapshot to the registry; the ring-stable seed host stands
    // in for the host that recorded it. Every other host starts cold and
    // pulls through the distribution tier on its first request for the app.
    // Seeds land only on dispatchable hosts (with every host active this is
    // the original HashKey % num_hosts placement).
    std::vector<int> eligible;
    for (int i = 0; i < num_hosts(); ++i) {
      if (Schedulable(i)) {
        eligible.push_back(i);
      }
    }
    FW_CHECK(!eligible.empty());
    distribution_->Publish(app, eligible[HashKey(fn.name) % eligible.size()]);
  }
  co_return Status::Ok();
}

void Cluster::EvaluateDueHosts() {
  const fwbase::SimTime now = sim_.Now();
  while (!health_due_.empty() && health_due_.top().first <= now) {
    const auto [due, h] = health_due_.top();
    health_due_.pop();
    HostState& hs = *hosts_[h];
    if (due != hs.health_due) {
      continue;  // Stale: superseded by an earlier entry for the host.
    }
    hs.health_due = fwbase::SimTime::Max();
    if (!Schedulable(h)) {
      continue;  // Left the active set since queuing: never evaluated again.
    }
    // Detected state: what heartbeats + data-path evidence support, not what
    // the fault bookkeeping knows. A freshly crashed host looks alive until
    // it misses heartbeats or bounces a request. (If heartbeats moved the
    // threshold out since this entry was queued, Evaluate is a no-op and the
    // host simply re-queues.)
    ApplyHealth(h, health_.Evaluate(h, now));
    // DueTime is exact, so the host is now due strictly later: this loop
    // cannot spin on one instant.
    FW_CHECK(hs.health_due > now);
  }
}

void Cluster::SyncHost(int host_index) {
  HostView& view = views_[host_index];
  const bool was_alive = view.alive;
  if (Schedulable(host_index)) {
    const HealthState state = health_.state(host_index);
    view.alive = state != HealthState::kDead;
    view.suspect = state == HealthState::kSuspect;
    view.pressured = health_.pressured(host_index);
    // Queue the next health check unless an earlier entry is already queued
    // (that one re-queues when it pops early).
    HostState& hs = *hosts_[host_index];
    const fwbase::SimTime due = health_.DueTime(host_index);
    if (due < hs.health_due) {
      hs.health_due = due;
      health_due_.emplace(due, host_index);
    }
  } else {
    // Joining/warming hosts are not yet admitted, draining/removed ones take
    // no new work: unschedulable regardless of liveness, and the detector is
    // not consulted (so a decommissioned host cannot rack up suspect/death
    // transitions forever). Admission syncs the host again.
    view.alive = false;
    view.suspect = false;
    view.pressured = false;
  }
  if (view.alive != was_alive) {
    alive_count_ += view.alive ? 1 : -1;
    alive_inflight_ += view.alive ? view.inflight : -view.inflight;
  }
}

void Cluster::AddInflight(int host_index, int64_t delta) {
  HostView& view = views_[host_index];
  view.inflight += delta;
  if (view.alive) {
    alive_inflight_ += delta;
  }
}

uint64_t Cluster::Submit(const std::string& fn_name, const std::string& args,
                         Duration deadline) {
  Request req;
  const uint64_t id = outcomes_.size() + 1;
  req.id = id;
  req.app = Intern(fn_name);
  req.args = args;
  req.submitted = sim_.Now();
  if (deadline.nanos() <= 0) {
    deadline = config_.admission.default_deadline;
  }
  if (deadline.nanos() > 0) {
    req.deadline = req.submitted + deadline;
  }
  outcomes_.emplace_back();
  outcomes_.back().app = req.app;
  primary_host_.push_back(-1);
  // Demand signals for the fleet planner and the zone spreader (pure
  // bookkeeping; both loops are gated off in a default config).
  ++fleet_tick_arrivals_;
  ++spread_arrivals_[req.app];
  counters_.submitted.Increment();
  if (config_.hedging) {
    sim_.Spawn(Hedger(id, req.app, args, req.submitted, req.deadline));
  }
  Dispatch(std::move(req));
  return id;
}

void Cluster::Dispatch(Request req, int exclude_host) {
  FW_PROFILE_SCOPE_ID(&obs_.profiler(), dispatch_scope_);
  EvaluateDueHosts();
  PickInput in(views_);
  in.alive_count = alive_count_;
  in.alive_inflight = alive_inflight_;
  if (exclude_host >= 0 && views_[exclude_host].alive && alive_count_ > 1) {
    // Skip the host that just failed this request (or the hedge primary's
    // host) — but only when somewhere else could take it: a one-host-left
    // cluster still retries in place.
    in.exclude = exclude_host;
    in.alive_count -= 1;
    in.alive_inflight -= views_[exclude_host].inflight;
  }
  // Snapshot locality over actual chunk placement: the scheduler prefers
  // hosts that already hold the app's snapshot before forcing a cold pull.
  const auto holds = [this, &req](int h) { return distribution_->Holds(h, req.app); };
  if (distribution_ != nullptr) {
    in.holds = holds;
  }
  const int target = scheduler_->Pick(apps_.Name(req.app), in);
  if (target < 0) {
    if (req.hedge) {
      // A hedge copy that cannot be placed is simply abandoned — the primary
      // still owns the request's outcome.
      counters_.hedge_discards.Increment();
      return;
    }
    RecordFailure(req, Status::Unavailable("no schedulable host"));
    return;
  }
  HostState& hs = *hosts_[target];
  const Status admit = admission_.Admit(target, static_cast<int64_t>(hs.queue->size()),
                                        sim_.Now(), req.deadline);
  if (!admit.ok()) {
    counters_.shed.Increment();
    {
      fwobs::ScopedSpan span(&obs_.tracer(), "cluster.shed", "cluster");
      span.SetAttribute("host", static_cast<uint64_t>(target));
      span.SetAttribute("fn", apps_.Name(req.app));
      span.SetAttribute("attempt", static_cast<uint64_t>(req.attempts));
    }
    if (req.hedge) {
      counters_.hedge_discards.Increment();
      return;
    }
    RecordFailure(req, admit);
    return;
  }
  if (!req.hedge && req.attempts == 1) {
    retry_budget_.OnAccepted(req.app);
  }
  if (!req.hedge) {
    primary_host_[req.id - 1] = target;
  }
  AddInflight(target, 1);
  ++hs.arrivals[req.app];
  hs.queue->Send(std::move(req));
}

void Cluster::RetryRequest(Request req, int failed_host) {
  counters_.retries.Increment();
  ++req.attempts;
  if (req.attempts > kMaxAttempts) {
    RecordFailure(req, Status::Unavailable("retry attempts exhausted"));
    return;
  }
  if (!retry_budget_.TrySpend(req.app)) {
    // The app is already burning its budget on failures: abandoning the
    // retry keeps recovery traffic a bounded fraction of offered load
    // instead of a storm.
    counters_.retry_budget_denied.Increment();
    RecordFailure(req, Status::ResourceExhausted("retry budget for " + apps_.Name(req.app) +
                                                 " exhausted"));
    return;
  }
  Dispatch(std::move(req), failed_host);
}

void Cluster::RecordFailure(const Request& req, Status status) {
  Outcome& out = outcomes_[req.id - 1];
  out.status = std::move(status);
  out.attempts = req.attempts;
  out.latency = sim_.Now() - req.submitted;
  ++out.completions;
  counters_.failed.Increment();
  slo_.Record(req.app, apps_.Name(req.app), /*good=*/false);
}

void Cluster::RecordCompletion(const Request& req, const fwcore::InvocationResult& result,
                               int host_index, bool warm_hit) {
  Outcome& out = outcomes_[req.id - 1];
  out.status = Status::Ok();
  out.host = host_index;
  out.attempts = req.attempts;
  out.latency = sim_.Now() - req.submitted;
  out.startup = result.startup;
  out.exec = result.exec;
  out.warm_hit = warm_hit;
  out.request_id = result.exec_stats.request_id;
  ++out.completions;
  counters_.completed.Increment();
  latency_ms_.Add(out.latency.millis());
  if (recent_latency_ms_.size() < kHedgeWindow) {
    recent_latency_ms_.push_back(out.latency.millis());
  } else {
    recent_latency_ms_[recent_latency_next_] = out.latency.millis();
    recent_latency_next_ = (recent_latency_next_ + 1) % recent_latency_ms_.size();
  }
  startup_ms_.Add(result.startup.millis());
  slo_.Record(req.app, apps_.Name(req.app), /*good=*/out.latency <= config_.slo.target);
  if (warm_hit) {
    counters_.warm_hits.Increment();
  }
  if (req.hedge) {
    counters_.hedge_wins.Increment();
  }
}

void Cluster::ApplyHealth(int host_index, HealthTransition transition) {
  switch (transition) {
    case HealthTransition::kNone:
      break;
    case HealthTransition::kSuspected:
      counters_.suspects.Increment();
      break;
    case HealthTransition::kDied:
      counters_.detector_deaths.Increment();
      break;
    case HealthTransition::kReinstated:
      counters_.reinstated.Increment();
      break;
  }
  SyncHost(host_index);
}

double Cluster::PssFraction(int host_index) const {
  const double capacity = hosts_[host_index]->host->MemoryBytes();
  if (capacity <= 0.0) {
    return 0.0;
  }
  return hosts_[host_index]->host->PssBytes() / capacity;
}

Duration Cluster::HedgeDelay() const {
  if (static_cast<int64_t>(recent_latency_ms_.size()) >= kHedgeMinSamples) {
    // Nearest-rank quantile over the recent-latency ring (order within the
    // ring is irrelevant to a quantile).
    std::vector<double> window = recent_latency_ms_;
    const size_t rank = std::min(
        window.size() - 1,
        static_cast<size_t>(kHedgeQuantile / 100.0 *
                            static_cast<double>(window.size())));
    std::nth_element(window.begin(), window.begin() + rank, window.end());
    const Duration observed = Duration::MillisF(window[rank]);
    if (observed > config_.hedge_min_delay) {
      return observed;
    }
  }
  return config_.hedge_min_delay;
}

fwsim::Co<void> Cluster::Hedger(uint64_t id, AppId app, std::string args,
                                fwbase::SimTime submitted, fwbase::SimTime deadline) {
  co_await fwsim::Delay(sim_, HedgeDelay());
  if (!running_ || Terminal(id)) {
    co_return;
  }
  counters_.hedges.Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "cluster.hedge", "cluster");
    span.SetAttribute("request", id);
    span.SetAttribute("fn", apps_.Name(app));
  }
  Request copy;
  copy.id = id;
  copy.app = app;
  copy.args = std::move(args);
  copy.submitted = submitted;  // Latency stays submit→completion.
  copy.deadline = deadline;
  copy.hedge = true;
  Dispatch(std::move(copy), /*exclude_host=*/primary_host_[id - 1]);
}

fwsim::Co<void> Cluster::Worker(int host_index) {
  HostState& hs = *hosts_[host_index];
  while (true) {
    Request req = co_await hs.queue->Recv();
    if (Terminal(req.id)) {
      // The other copy of a hedged request already recorded the outcome;
      // this copy is surplus the moment it surfaces. (HostStates are
      // heap-allocated — AddHost only push_backs unique_ptrs — so `hs`
      // stays stable across suspensions and fleet growth.)
      AddInflight(host_index, -1);
      counters_.hedge_discards.Increment();
      continue;
    }
    if (!hs.alive) {
      // The host died with this request still queued: bounce it back to the
      // front end. (Not a zombie — it never started.) Connection-refused
      // analog: no need to wait out phi when the data path already proved
      // the host gone.
      AddInflight(host_index, -1);
      ApplyHealth(host_index, health_.ReportFailure(host_index));
      if (req.hedge) {
        counters_.hedge_discards.Increment();
        continue;
      }
      RetryRequest(std::move(req), host_index);
      continue;
    }
    if (req.deadline < fwbase::SimTime::Max() && sim_.Now() >= req.deadline) {
      // Already hopeless at dequeue (admission's estimate was optimistic, or
      // the queue stalled behind a slow host): drop it now instead of
      // burning a worker on a response nobody is waiting for.
      AddInflight(host_index, -1);
      counters_.expired.Increment();
      if (!req.hedge) {
        RecordFailure(req, Status::DeadlineExceeded("request expired in dispatch queue"));
      }
      continue;
    }
    const uint64_t epoch = hs.epoch;
    const uint64_t warm_before = hs.host->warm_hits();
    const fwbase::SimTime service_start = sim_.Now();
    if (injector_.Trip(fwfault::FaultKind::kHostSlowdown)) {
      // Gray failure: the host serves, but stalls first (IO contention,
      // cgroup throttling, a compacting GC). Detection never fires — this is
      // exactly the case hedging exists for.
      co_await fwsim::Delay(
          sim_, injector_.SampleDelay(fwfault::FaultKind::kHostSlowdown,
                                      config_.slow_host_mean_delay));
    }
    if (distribution_ != nullptr) {
      // Cold host: pull the snapshot through the distribution tier (cache →
      // peer → registry), then REAP working-set warm-up, all inside the
      // request's service time. Warm holders pass straight through.
      const Status pulled = co_await distribution_->EnsureSnapshot(host_index, req.app);
      FW_CHECK_MSG(pulled.ok(), "EnsureSnapshot degrades to cold boot, never fails");
      co_await distribution_->WarmRestore(host_index, req.app);
    }
    Result<fwcore::InvocationResult> result = Status::Internal("not run");
    // Detached profiler frame: the invocation spans awaits, so it gets
    // sim-time attribution only and never parents interleaved event scopes.
    const uint64_t prof_token =
        obs_.profiler().enabled() ? obs_.profiler().EnterDetached(invoke_scope_) : 0;
    {
      fwobs::ScopedSpan span(&obs_.tracer(), "cluster.invoke", "cluster");
      span.SetAttribute("host", static_cast<uint64_t>(host_index));
      span.SetAttribute("fn", apps_.Name(req.app));
      span.SetAttribute("attempt", static_cast<uint64_t>(req.attempts));
      if (req.hedge) {
        span.SetAttribute("hedge", static_cast<uint64_t>(1));
      }
      Duration budget = Duration::Zero();  // Zero = platform default timeout.
      if (req.deadline < fwbase::SimTime::Max()) {
        budget = req.deadline - sim_.Now();
      }
      result = co_await hs.host->Invoke(apps_.Name(req.app), req.args, budget);
    }
    obs_.profiler().Exit(prof_token);
    // Observed dequeue→response time feeds the admission controller's wait
    // estimate (failures included: they hold the worker just the same).
    admission_.RecordService(host_index, sim_.Now() - service_start);
    // Cluster-level service EWMA: the fleet planner's Little's-law signal.
    // Uses the intrinsic per-request cost (startup + exec), never the sojourn
    // time: in-host queueing and cold-path transients (snapshot pull,
    // first-touch boot on a just-joined host) would otherwise feed back into
    // the capacity model — every backlog or scale-up reads as rising demand
    // and the fleet flaps. Cold samples may additionally only lower the
    // estimate; warm-path drift is tracked in both directions.
    if (result.ok()) {
      const double observed_s = ((*result).startup + (*result).exec).seconds();
      if (!(*result).cold || observed_s < service_seconds_ewma_) {
        service_seconds_ewma_ = 0.3 * observed_s + 0.7 * service_seconds_ewma_;
      }
    }
    // A partitioned host keeps computing, but its response cannot reach the
    // front end until the partition heals.
    while (hs.alive && hs.epoch == epoch && sim_.Now() < hs.partitioned_until) {
      co_await fwsim::Delay(sim_, hs.partitioned_until - sim_.Now());
    }
    AddInflight(host_index, -1);
    if (!hs.alive || hs.epoch != epoch) {
      // Zombie: the host crashed while this invocation was in flight. The
      // result (if any) is discarded and the request retried elsewhere —
      // never both, so completions stay exactly-once.
      counters_.zombie_discards.Increment();
      ApplyHealth(host_index, health_.ReportFailure(host_index));
      if (req.hedge || Terminal(req.id)) {
        counters_.hedge_discards.Increment();
        continue;
      }
      RetryRequest(std::move(req), host_index);
      continue;
    }
    if (Terminal(req.id) || (!result.ok() && req.hedge)) {
      // The other copy won while this one was executing (the first recorded
      // completion stands), or a hedge copy failed (hedge copies never drive
      // terminal failures; the primary owns the outcome): discard unrecorded.
      counters_.hedge_discards.Increment();
      continue;
    }
    if (!result.ok()) {
      // The platform exhausted its own recovery (internal retries + cold-boot
      // fallback): surface the failure rather than retrying endlessly.
      RecordFailure(req, result.status());
      continue;
    }
    const bool warm_hit = hs.host->warm_hits() > warm_before;
    RecordCompletion(req, *result, host_index, warm_hit);
    if (warm_hit && config_.autoscale && running_ && Schedulable(host_index)) {
      // Replenish the consumed clone right away (one for one) instead of
      // waiting for the next autoscaler tick; the tick's shrink hysteresis
      // still trims the pool when the app's rate drops.
      const int pending = static_cast<int>(hs.host->PooledClones(apps_.Name(req.app))) +
                          hs.preparing[req.app];
      if (pending < kMaxPoolPerApp) {
        ++hs.preparing[req.app];
        sim_.Spawn(PrepareOne(host_index, req.app, hs.epoch));
      }
    }
  }
}

fwsim::Co<void> Cluster::Heartbeater(int host_index) {
  HostState& hs = *hosts_[host_index];
  while (running_ && hs.lifecycle != HostLifecycle::kRemoved) {
    // A crashed host sends nothing; a partitioned host's beats never arrive;
    // heartbeat_loss drops one on the wire. The detector only ever sees
    // beats that got through. A decommissioned host stops beating for good.
    if (hs.alive && sim_.Now() >= hs.partitioned_until &&
        !injector_.Trip(fwfault::FaultKind::kHeartbeatLoss)) {
      ApplyHealth(host_index,
                  health_.Heartbeat(host_index, sim_.Now(), PssFraction(host_index)));
    }
    co_await fwsim::Delay(sim_, config_.health.heartbeat_interval);
  }
}

fwsim::Co<void> Cluster::Autoscaler(int host_index) {
  HostState& hs = *hosts_[host_index];
  while (running_) {
    co_await fwsim::Delay(sim_, kAutoscaleInterval);
    if (!running_) {
      break;
    }
    if (hs.lifecycle == HostLifecycle::kRemoved) {
      break;  // Decommissioned: nothing left to scale, ever.
    }
    if (!hs.alive || hs.lifecycle != HostLifecycle::kActive) {
      // Dead hosts have no pool; joining hosts are warmed by JoinWarmup;
      // draining hosts must bleed, not grow.
      std::fill(hs.arrivals.begin(), hs.arrivals.end(), 0);
      continue;
    }
    if (health_.pressured(host_index)) {
      // Brownout: shed the parked clones (reclaimable memory) before the
      // host OOMs, and skip growth this tick. The scheduler is already
      // steering new work away via the pressured view bit.
      for (AppId app : installed_) {
        const std::string& name = apps_.Name(app);
        while (hs.host->PooledClones(name) > 0) {
          if (!hs.host->DiscardClone(name).ok()) {
            break;
          }
          counters_.brownout_discards.Increment();
        }
      }
      std::fill(hs.arrivals.begin(), hs.arrivals.end(), 0);
      continue;
    }
    for (AppId app : installed_) {
      const std::string& name = apps_.Name(app);
      const double ewma = TickRateEwma(hs.arrivals, hs.rate_ewma, app);
      // Little's law: cover the arrivals that land while a replacement clone
      // is being prepared, with safety headroom.
      const int target = std::min(
          kMaxPoolPerApp,
          static_cast<int>(std::ceil(ewma * hs.prepare_seconds_ewma * kAutoscaleSafety)));
      const int deficit = target - static_cast<int>(hs.host->PooledClones(name)) -
                          hs.preparing[app];
      for (int k = 0; k < deficit; ++k) {
        ++hs.preparing[app];
        sim_.Spawn(PrepareOne(host_index, app, hs.epoch));
      }
      // Shrink with hysteresis so a borderline target does not flap.
      while (static_cast<int>(hs.host->PooledClones(name)) > target + 1) {
        if (!hs.host->DiscardClone(name).ok()) {
          break;
        }
      }
    }
    std::fill(hs.arrivals.begin(), hs.arrivals.end(), 0);
  }
}

fwsim::Co<void> Cluster::PrepareOne(int host_index, AppId app, uint64_t epoch) {
  HostState& hs = *hosts_[host_index];
  const fwbase::SimTime t0 = sim_.Now();
  // Stays valid across the await: interning never moves a name.
  const std::string& name = apps_.Name(app);
  Status s = co_await hs.host->PrepareClone(name);
  --hs.preparing[app];
  if (!s.ok()) {
    co_return;
  }
  if (hs.epoch != epoch) {
    // The host crashed (or was decommissioned) while this clone was being
    // prepared: discard it rather than parking it on capacity that no longer
    // exists — leaving it would leak the VM past the host's teardown.
    (void)hs.host->DiscardClone(name);
    co_return;
  }
  hs.prepare_seconds_ewma =
      0.3 * (sim_.Now() - t0).seconds() + 0.7 * hs.prepare_seconds_ewma;
}

fwsim::Co<void> Cluster::Sampler() {
  std::optional<SampledGauges> gauges;
  while (running_) {
    co_await fwsim::Delay(sim_, kSampleInterval);
    if (!running_) {
      break;
    }
    if (!gauges.has_value()) {
      gauges.emplace(obs_.metrics());
    }
    double pss = 0.0;
    uint64_t vms = 0;
    uint64_t alive = 0;
    uint64_t queued = 0;
    uint64_t inflight = 0;
    uint64_t warm_hits = 0;
    for (size_t i = 0; i < hosts_.size(); ++i) {
      const HostState& hs = *hosts_[i];
      pss += hs.host->PssBytes();
      vms += hs.host->LiveVmCount();
      alive += hs.alive ? 1 : 0;
      queued += hs.queue->size();
      inflight += static_cast<uint64_t>(std::max<int64_t>(views_[i].inflight, 0));
      warm_hits += hs.host->warm_hits();
    }
    peak_pss_bytes_ = std::max(peak_pss_bytes_, pss);
    peak_live_vms_ = std::max(peak_live_vms_, vms);
    gauges->pss_bytes.Set(pss);
    gauges->live_vms.Set(static_cast<double>(vms));
    // Fleet-wide rollup gauges: per-host state aggregated at the front end,
    // so one scrape of the cluster registry describes the whole fleet.
    gauges->hosts_alive.Set(static_cast<double>(alive));
    gauges->hosts_active.Set(static_cast<double>(active_hosts()));
    gauges->zones_alive.Set(static_cast<double>(zones_alive()));
    gauges->queue_depth.Set(static_cast<double>(queued));
    gauges->inflight.Set(static_cast<double>(inflight));
    gauges->warm_hits.Set(static_cast<double>(warm_hits));
    slo_.Tick();
  }
}

void Cluster::Drain(uint64_t until_terminal) {
  // The background services (heartbeats, autoscaler, sampler) keep the event
  // queue non-empty forever, so "queue ran dry" cannot detect an impossible
  // target (e.g. until_terminal > what the workload will ever submit).
  // Instead: abort once simulated time advances drain_stall_timeout past the
  // last new submission or terminal outcome.
  uint64_t last_terminal = terminal();
  uint64_t last_submitted = submitted();
  fwbase::SimTime last_progress = sim_.Now();
  while (terminal() < until_terminal && sim_.StepOne()) {
    if (terminal() != last_terminal || submitted() != last_submitted) {
      last_terminal = terminal();
      last_submitted = submitted();
      last_progress = sim_.Now();
    } else if (sim_.Now() - last_progress > config_.drain_stall_timeout) {
      FW_CHECK_MSG(
          false,
          fwbase::StrFormat(
              "Cluster::Drain(%llu) stalled: %llu submitted, %llu terminal, and no "
              "progress for %.0fs of simulated time — until_terminal exceeds what "
              "this workload will ever produce",
              static_cast<unsigned long long>(until_terminal),
              static_cast<unsigned long long>(submitted()),
              static_cast<unsigned long long>(terminal()),
              config_.drain_stall_timeout.seconds())
              .c_str());
    }
  }
  FW_CHECK_MSG(terminal() >= until_terminal,
               "cluster drained its event queue with requests still pending");
  Shutdown();
}

void Cluster::CrashHost(int host) {
  FW_CHECK(host >= 0 && host < num_hosts());
  HostState& hs = *hosts_[host];
  if (!hs.alive) {
    return;
  }
  hs.alive = false;
  ++hs.epoch;
  // The parked clones lived in the host's memory.
  hs.host->DropWarmPool();
  std::fill(hs.arrivals.begin(), hs.arrivals.end(), 0);
  std::fill(hs.rate_ewma.begin(), hs.rate_ewma.end(), 0.0);
  counters_.host_crashes.Increment();
}

void Cluster::RestartHost(int host) {
  FW_CHECK(host >= 0 && host < num_hosts());
  HostState& hs = *hosts_[host];
  if (hs.alive || hs.lifecycle == HostLifecycle::kRemoved) {
    // Decommissioned capacity does not come back: re-provision with AddHost.
    return;
  }
  hs.alive = true;
  hs.partitioned_until = fwbase::SimTime::Zero();
  if (distribution_ != nullptr) {
    // Disk state (chunk cache, installed images) survived; page cache did
    // not — the host re-warms working sets on first touch.
    distribution_->OnHostRestart(host);
  }
  // The detector reinstates the host on its next heartbeat, not here: a
  // restart the front end has no evidence for does not exist yet.
  counters_.host_restarts.Increment();
}

void Cluster::PartitionHost(int host, Duration duration) {
  FW_CHECK(host >= 0 && host < num_hosts());
  HostState& hs = *hosts_[host];
  hs.partitioned_until = std::max(hs.partitioned_until, sim_.Now() + duration);
  counters_.host_partitions.Increment();
}

void Cluster::KillZone(int zone) {
  FW_CHECK(zone >= 0 && zone < config_.num_zones);
  counters_.zone_outages.Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "fleet.zone_outage", "cluster");
    span.SetAttribute("zone", static_cast<uint64_t>(zone));
  }
  for (int h = 0; h < num_hosts(); ++h) {
    HostState& hs = *hosts_[h];
    if (hs.zone == zone && hs.alive && hs.lifecycle != HostLifecycle::kRemoved) {
      CrashHost(h);
    }
  }
}

void Cluster::RestoreZone(int zone) {
  FW_CHECK(zone >= 0 && zone < config_.num_zones);
  for (int h = 0; h < num_hosts(); ++h) {
    HostState& hs = *hosts_[h];
    if (hs.zone == zone && !hs.alive && hs.lifecycle != HostLifecycle::kRemoved) {
      RestartHost(h);
    }
  }
}

// ---------------------------------------------------------------------------
// Elastic fleet (DESIGN.md §16)
// ---------------------------------------------------------------------------

int Cluster::active_hosts() const {
  int n = 0;
  for (const auto& hs : hosts_) {
    if (hs->lifecycle == HostLifecycle::kActive && hs->alive) {
      ++n;
    }
  }
  return n;
}

int Cluster::zones_alive() const {
  std::vector<bool> seen(static_cast<size_t>(config_.num_zones), false);
  int n = 0;
  for (const auto& hs : hosts_) {
    if (hs->lifecycle == HostLifecycle::kActive && hs->alive &&
        !seen[static_cast<size_t>(hs->zone)]) {
      seen[static_cast<size_t>(hs->zone)] = true;
      ++n;
    }
  }
  return n;
}

double Cluster::HostHours() const { return fleet_ledger_.HostHours(sim_.Now()); }

int Cluster::AddHost(std::unique_ptr<ClusterHost> host, int zone) {
  if (host == nullptr) {
    FW_CHECK_MSG(config_.host_factory != nullptr,
                 "AddHost needs an explicit host or Config::host_factory");
    host = config_.host_factory(sim_, static_cast<int>(hosts_.size()));
  }
  if (zone < 0) {
    // Balance failure domains: join the zone with the fewest live hosts.
    std::vector<int> per_zone(static_cast<size_t>(config_.num_zones), 0);
    for (const auto& other : hosts_) {
      if (other->lifecycle != HostLifecycle::kRemoved) {
        ++per_zone[static_cast<size_t>(other->zone)];
      }
    }
    zone = PickJoinZone(per_zone);
  }
  FW_CHECK(zone >= 0 && zone < config_.num_zones);
  const int index = NewHostState(std::move(host), zone, HostLifecycle::kJoining);
  // Grow every per-host control-plane table alongside the host list.
  health_.AddHost(sim_.Now());
  admission_.AddHost();
  if (distribution_ != nullptr) {
    distribution_->AddHost();
  }
  SpawnHostServices(index);
  counters_.hosts_added.Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "fleet.join", "cluster");
    span.SetAttribute("host", static_cast<uint64_t>(index));
    span.SetAttribute("zone", static_cast<uint64_t>(zone));
  }
  sim_.Spawn(JoinWarmup(index, hosts_[index]->epoch));
  return index;
}

fwsim::Co<void> Cluster::JoinWarmup(int host_index, uint64_t epoch) {
  HostState& hs = *hosts_[host_index];
  hs.lifecycle = HostLifecycle::kWarming;
  // Replay every install the fleet has accepted so far. Index-based: more
  // installs may land while this coroutine is suspended, and a host that
  // joined mid-InstallAll must still end up with the full set.
  for (size_t i = 0; i < installed_sources_.size(); ++i) {
    const fwlang::FunctionSource fn = installed_sources_[i];
    Status s = co_await hs.host->Install(fn);
    FW_CHECK_MSG(s.ok(), "join warm-up install failed");
  }
  // Warm the snapshot path before taking traffic: pull chunks through the
  // distribution tier (registry/peer fetch + REAP working-set prefetch +
  // guest reseed/clock rebase on restore) and park clones, so the host's
  // first dispatched request is a warm hit, not a cold boot.
  for (size_t i = 0; i < installed_.size(); ++i) {
    const AppId app = installed_[i];
    const std::string& name = apps_.Name(app);
    if (distribution_ != nullptr) {
      const Status pulled = co_await distribution_->EnsureSnapshot(host_index, app);
      FW_CHECK_MSG(pulled.ok(), "EnsureSnapshot degrades to cold boot, never fails");
      co_await distribution_->WarmRestore(host_index, app);
    }
    for (int k = 0; k < kJoinWarmClones; ++k) {
      if (static_cast<int>(hs.host->PooledClones(name)) >= kMaxPoolPerApp) {
        break;
      }
      Status s = co_await hs.host->PrepareClone(name);
      if (!s.ok()) {
        break;
      }
      if (hs.epoch != epoch) {
        // Crashed mid-warm-up: the clone did not survive the host's memory.
        (void)hs.host->DiscardClone(name);
      }
    }
  }
  // Admitted: visible to the scheduler (and the locality ring) from the next
  // dispatch on. A crash during warm-up does not cancel admission — crash is
  // not leave; the detector excludes the host until it heartbeats again.
  hs.lifecycle = HostLifecycle::kActive;
  SyncHost(host_index);
  scheduler_->OnHostJoin(host_index);
  counters_.hosts_admitted.Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "fleet.admit", "cluster");
    span.SetAttribute("host", static_cast<uint64_t>(host_index));
    span.SetAttribute("zone", static_cast<uint64_t>(hs.zone));
  }
}

void Cluster::RemoveHost(int host) {
  FW_CHECK(host >= 0 && host < num_hosts());
  HostState& hs = *hosts_[host];
  if (hs.lifecycle == HostLifecycle::kDraining ||
      hs.lifecycle == HostLifecycle::kRemoved) {
    return;
  }
  // Out of the ring immediately: no new dispatch while the host bleeds its
  // queue and inflight work through the normal completion path.
  hs.lifecycle = HostLifecycle::kDraining;
  SyncHost(host);
  scheduler_->OnHostLeave(host);
  counters_.hosts_removed.Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "fleet.drain", "cluster");
    span.SetAttribute("host", static_cast<uint64_t>(host));
    span.SetAttribute("zone", static_cast<uint64_t>(hs.zone));
  }
  sim_.Spawn(DrainAndRemove(host));
}

fwsim::Co<void> Cluster::DrainAndRemove(int host_index) {
  HostState& hs = *hosts_[host_index];
  // Replenish the departing host's warm capacity on its ring successors
  // before the pool disappears, so its apps stay warm somewhere else.
  if (config_.autoscale) {
    EvaluateDueHosts();
    for (AppId app : installed_) {
      const std::string& name = apps_.Name(app);
      if (hs.host->PooledClones(name) == 0) {
        continue;
      }
      int target = -1;
      for (int t : scheduler_->WarmTargets(name, views_, 1)) {
        if (t != host_index && Schedulable(t)) {
          target = t;
          break;
        }
      }
      if (target < 0) {
        // Placement-free policy (or no ring successor): least-loaded active.
        for (int h = 0; h < num_hosts(); ++h) {
          if (h == host_index || !views_[h].alive || !Schedulable(h)) {
            continue;
          }
          if (target < 0 || views_[h].inflight < views_[target].inflight) {
            target = h;
          }
        }
      }
      if (target < 0) {
        continue;  // Nowhere to migrate: the pool is simply lost.
      }
      HostState& ts = *hosts_[target];
      const int pending =
          static_cast<int>(ts.host->PooledClones(name)) + ts.preparing[app];
      if (pending < kMaxPoolPerApp) {
        ++ts.preparing[app];
        sim_.Spawn(PrepareOne(target, app, ts.epoch));
      }
    }
  }
  // Bleed: inflight covers both queued and executing requests, and the
  // scheduler stopped feeding this host when it left the ring.
  while (views_[host_index].inflight > 0) {
    co_await fwsim::Delay(sim_, kSampleInterval);
  }
  // Teardown. The epoch bump first: any PrepareOne still in flight for this
  // host discards its clone on completion instead of parking it on capacity
  // that no longer exists (the decommission-leak hazard).
  ++hs.epoch;
  hs.host->DropWarmPool();
  hs.alive = false;
  hs.lifecycle = HostLifecycle::kRemoved;
  SyncHost(host_index);
  std::fill(hs.arrivals.begin(), hs.arrivals.end(), 0);
  std::fill(hs.rate_ewma.begin(), hs.rate_ewma.end(), 0.0);
  fleet_ledger_.OnRemove(host_index, sim_.Now());
  counters_.hosts_decommissioned.Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "fleet.removed", "cluster");
    span.SetAttribute("host", static_cast<uint64_t>(host_index));
    span.SetAttribute("zone", static_cast<uint64_t>(hs.zone));
  }
}

fwsim::Co<void> Cluster::ZoneSpreader() {
  while (running_) {
    co_await fwsim::Delay(sim_, kAutoscaleInterval);
    if (!running_) {
      break;
    }
    EvaluateDueHosts();
    std::map<int, bool> alive_zones;
    for (const HostView& v : views_) {
      if (v.alive) {
        alive_zones.emplace(v.zone, true);
      }
    }
    for (AppId app : installed_) {
      const std::string& name = apps_.Name(app);
      const double ewma = TickRateEwma(spread_arrivals_, spread_rate_ewma_, app);
      if (alive_zones.size() < 2 || ewma <= 1e-6) {
        // One zone left (nothing to spread to) or the app carries no
        // traffic (nothing worth keeping warm twice).
        continue;
      }
      // Keep at least one warm clone in two distinct zones: the ring owner
      // plus the next clockwise host in an uncovered zone. The per-host
      // autoscaler sizes the primary's pool; this loop only guarantees the
      // cross-zone replica exists.
      for (int t : scheduler_->WarmTargets(name, views_, 2)) {
        if (!Schedulable(t)) {
          continue;
        }
        HostState& ts = *hosts_[t];
        const int pending =
            static_cast<int>(ts.host->PooledClones(name)) + ts.preparing[app];
        if (pending < 1) {
          ++ts.preparing[app];
          sim_.Spawn(PrepareOne(t, app, ts.epoch));
        }
      }
    }
    std::fill(spread_arrivals_.begin(), spread_arrivals_.end(), 0);
  }
}

fwsim::Co<void> Cluster::FleetAutoscaler() {
  const double interval_s = config_.fleet.interval.seconds();
  while (running_) {
    co_await fwsim::Delay(sim_, config_.fleet.interval);
    if (!running_) {
      break;
    }
    const double rate = static_cast<double>(fleet_tick_arrivals_) / interval_s;
    fleet_tick_arrivals_ = 0;
    int provisioned = 0;
    for (const auto& other : hosts_) {
      if (other->lifecycle != HostLifecycle::kRemoved &&
          other->lifecycle != HostLifecycle::kDraining) {
        ++provisioned;
      }
    }
    const int delta = fleet_planner_->Step(rate, service_seconds_ewma_, provisioned);
    if (delta > 0) {
      for (int k = 0; k < delta; ++k) {
        AddHost();
      }
    } else if (delta < 0 && active_hosts() > 1) {
      // Scale down from the most-populated zone (preserving spread), least
      // inflight first so the drain is short. Ties keep the lowest index.
      // `provisioned` counts joining and warming hosts, so a low tick right
      // after a scale-up could otherwise drain the last host able to serve
      // while its replacements are still warming.
      std::vector<int> per_zone(static_cast<size_t>(config_.num_zones), 0);
      for (const auto& other : hosts_) {
        if (other->lifecycle == HostLifecycle::kActive && other->alive) {
          ++per_zone[static_cast<size_t>(other->zone)];
        }
      }
      int busiest_zone = 0;
      for (int z = 1; z < config_.num_zones; ++z) {
        if (per_zone[static_cast<size_t>(z)] > per_zone[static_cast<size_t>(busiest_zone)]) {
          busiest_zone = z;
        }
      }
      int victim = -1;
      for (int h = 0; h < num_hosts(); ++h) {
        const HostState& other = *hosts_[h];
        if (other.lifecycle != HostLifecycle::kActive || !other.alive ||
            other.zone != busiest_zone) {
          continue;
        }
        if (victim < 0 || views_[h].inflight < views_[victim].inflight) {
          victim = h;
        }
      }
      if (victim >= 0) {
        RemoveHost(victim);
      }
    }
  }
}

fwsim::Co<void> Cluster::ZoneOutageLoop() {
  while (running_) {
    co_await fwsim::Delay(sim_, config_.zone_outage_check_interval);
    if (!running_) {
      break;
    }
    if (!injector_.Trip(fwfault::FaultKind::kZoneOutage)) {
      continue;
    }
    // Round-robin over zones so repeated trips exercise every failure
    // domain; the zone_outages counter counts KillZone calls, so read it
    // pre-kill.
    const int zone = static_cast<int>(counters_.zone_outages.value() %
                                      static_cast<uint64_t>(config_.num_zones));
    KillZone(zone);
    sim_.Spawn(RestoreZoneAfter(zone, config_.zone_outage_duration));
  }
}

fwsim::Co<void> Cluster::RestoreZoneAfter(int zone, fwbase::Duration delay) {
  co_await fwsim::Delay(sim_, delay);
  if (running_) {
    RestoreZone(zone);
  }
}

const Cluster::Outcome& Cluster::outcome(uint64_t id) const {
  FW_CHECK(id >= 1 && id <= outcomes_.size());
  return outcomes_[id - 1];
}

Cluster::Rollup Cluster::ComputeRollup() const {
  Rollup r;
  r.submitted = submitted();
  r.completed = counters_.completed.value();
  r.failed = counters_.failed.value();
  r.retries = counters_.retries.value();
  r.zombie_discards = counters_.zombie_discards.value();
  for (const auto& hs : hosts_) {
    r.warm_hits += hs->host->warm_hits();
  }
  r.shed = counters_.shed.value();
  r.expired = counters_.expired.value();
  r.retry_budget_denied = counters_.retry_budget_denied.value();
  r.hedges = counters_.hedges.value();
  r.hedge_wins = counters_.hedge_wins.value();
  r.hedge_discards = counters_.hedge_discards.value();
  r.suspects = counters_.suspects.value();
  r.detector_deaths = counters_.detector_deaths.value();
  r.reinstated = counters_.reinstated.value();
  r.brownout_discards = counters_.brownout_discards.value();
  r.latency_ms = latency_ms_;
  r.startup_ms = startup_ms_;
  r.peak_pss_bytes = peak_pss_bytes_;
  r.peak_live_vms = peak_live_vms_;
  r.slo_total = slo_.total();
  r.slo_good = slo_.good();
  r.slo_alerts = slo_.alerts();
  r.slo_attainment = slo_.Attainment();
  r.slo_worst_attainment = slo_.WorstAttainment();
  r.hosts_added = counters_.hosts_added.value();
  r.hosts_removed = counters_.hosts_removed.value();
  r.zone_outages = counters_.zone_outages.value();
  r.host_hours = fleet_ledger_.HostHours(sim_.Now());
  if (distribution_ != nullptr) {
    r.distribution = distribution_->stats();
  }
  return r;
}

uint64_t Cluster::OutcomeDigest() const {
  uint64_t digest = 0xcbf29ce484222325ull;
  auto mix = [&digest](uint64_t v) {
    digest ^= v;
    digest *= 0x100000001b3ull;
  };
  for (size_t i = 0; i < outcomes_.size(); ++i) {
    const Outcome& out = outcomes_[i];
    mix(i + 1);
    mix(static_cast<uint64_t>(out.host) + 2);
    mix(static_cast<uint64_t>(out.attempts));
    mix(static_cast<uint64_t>(out.latency.nanos()));
    mix(out.completions);
    mix(out.request_id);
    mix(static_cast<uint64_t>(out.status.code()) + 1);
  }
  return digest;
}

}  // namespace fwcluster
