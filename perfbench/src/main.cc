// fwperf: the repo benchmark. Runs one seeded open-loop workload against the
// simulated cluster for a wall-time budget, checks the outputs, and prints
// every metric by name with its unit and basis, then one JSON result line.
//
//   fwperf --workload NAME --seed N --seconds S --trace 0|1
//          [--spans FILE] [--invocations N] [--replicas K]
//
// The seed expands into K independent replicas (sub-seeded request streams;
// K is part of the workload). A pass sets up from scratch (calibration,
// hosts, installs), replays one replica's stream and drains it. The run
// cycles through the replicas until the time budget is spent; every repeat of
// a replica must reproduce its first pass bit for bit. Simulated results are
// pooled over the K replicas, host-time results are medians over all passes.
//
// --trace 0 reports the end-to-end metrics from untraced passes. --trace 1
// pairs each untraced pass with a traced pass of the same replica, checks the
// traced outcome digest against the untraced one, checks the host-time and
// latency decompositions, and reports the per-layer metrics.
//
// Host time (host_ns_per_inv, setup_s, peak_rss_mib, every *_ns layer) is the
// simulator's own speed. sim_* metrics and slo_attainment are the modelled
// platform's results, deterministic for a seed. The model is not validated
// against real hardware: no error figure is claimed for the sim_* numbers.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/probe.h"
#include "perfbench/src/workloads.h"
#include "src/base/strings.h"
#include "src/cluster/calibrate.h"
#include "src/cluster/cluster.h"
#include "src/core/fireworks.h"
#include "src/simcore/run_sync.h"
#include "src/workloads/faasdom.h"

namespace fwperf {
namespace {

using fwbase::StrFormat;
using fwcluster::Cluster;

constexpr double kMiB = 1024.0 * 1024.0;
// No pass starts once it could end past this much wall time, so a run stays
// well inside the harness's per-run limit.
constexpr double kMaxRunSeconds = 150.0;
constexpr int kLayers = static_cast<int>(Layer::kCount);

struct Options {
  Options() {}
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  uint64_t invocations = 0;
  int replicas = 0;
};

// One named value with its unit and the basis it was computed from (sample
// count, or numerator and denominator of a ratio).
struct Metric {
  Metric() {}
  Metric(std::string n, double v, std::string u, std::string b)
      : name(std::move(n)), value(v), unit(std::move(u)), basis(std::move(b)) {}
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string basis;
};

using MetricList = std::vector<Metric>;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Metric RatioMetric(const std::string& name, uint64_t num, uint64_t den, const std::string& unit,
                   const char* num_label, const char* den_label) {
  return Metric(name, Ratio(static_cast<double>(num), static_cast<double>(den)), unit,
                StrFormat("%s %" PRIu64 " / %s %" PRIu64, num_label, num, den_label, den));
}

Metric Percentile(const std::string& name, const fwbase::SampleStats& s, double p,
                  const std::string& unit) {
  const double v = s.count() > 0 ? s.Percentile(p) : 0.0;
  return Metric(name, v, unit, StrFormat("n=%" PRId64, s.count()));
}

Metric Count(const std::string& name, uint64_t v, const char* basis) {
  return Metric(name, static_cast<double>(v), "count", basis);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t ReplicaSeed(uint64_t seed, int replica) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(replica) + 1;
}

// ---------------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------------

struct LoadStats {
  uint64_t late = 0;         // Submits after their due sim time.
  uint64_t id_mismatch = 0;  // Cluster request id != bench submit order.
};

fwsim::Co<void> DriveLoad(fwsim::Simulation& sim, Cluster& cluster, fwwork::LoadGenConfig config,
                          uint64_t count, const std::vector<std::string>* names, Recorder* rec,
                          LoadStats* stats) {
  fwwork::LoadGen gen(config);
  const fwbase::SimTime start = sim.Now();
  for (uint64_t tag = 1; tag <= count; ++tag) {
    fwwork::Arrival a;
    {
      Scope scope(rec, "loadgen.next", Layer::kLoadGen, tag, /*keep=*/true);
      a = gen.Next();
    }
    const fwbase::SimTime due = start + a.offset;
    if (due > sim.Now()) {
      co_await fwsim::Delay(sim, due - sim.Now());
    }
    if (sim.Now() != due) {
      ++stats->late;
    }
    const std::string args = RequestArgs(tag);
    uint64_t id = 0;
    {
      Scope scope(rec, "frontend.submit", Layer::kFrontend, tag, /*keep=*/true);
      id = cluster.Submit((*names)[static_cast<size_t>(a.app)], args);
    }
    if (id != tag) {
      ++stats->id_mismatch;
    }
  }
}

// Existing per-host counters of the FullHost subsystems, summed over hosts.
struct SubsystemCounters {
  uint64_t restores = 0;
  uint64_t creates = 0;
  uint64_t cow_faults = 0;
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
  uint64_t frames = 0;
  uint64_t snapshot_hits = 0;
  uint64_t snapshot_misses = 0;
  uint64_t reseeds = 0;
  // Whole host lifetime: the bus histograms cannot be read as deltas, so the
  // few install-time records are included.
  fwbase::SampleStats produce_us;
  fwbase::SampleStats consume_us;

  // Counter deltas since `base`; histograms are kept whole.
  SubsystemCounters Since(const SubsystemCounters& base) const {
    SubsystemCounters d = *this;
    d.restores -= base.restores;
    d.creates -= base.creates;
    d.cow_faults -= base.cow_faults;
    d.minor_faults -= base.minor_faults;
    d.major_faults -= base.major_faults;
    d.frames -= base.frames;
    d.snapshot_hits -= base.snapshot_hits;
    d.snapshot_misses -= base.snapshot_misses;
    d.reseeds -= base.reseeds;
    return d;
  }

  void Add(const SubsystemCounters& o) {
    restores += o.restores;
    creates += o.creates;
    cow_faults += o.cow_faults;
    minor_faults += o.minor_faults;
    major_faults += o.major_faults;
    frames += o.frames;
    snapshot_hits += o.snapshot_hits;
    snapshot_misses += o.snapshot_misses;
    reseeds += o.reseeds;
    produce_us.Merge(o.produce_us);
    consume_us.Merge(o.consume_us);
  }
};

fwcluster::FullHost* AsFullHost(fwcluster::ClusterHost& host) {
  if (auto* timed = dynamic_cast<TimedHost*>(&host)) {
    return dynamic_cast<fwcluster::FullHost*>(&timed->inner());
  }
  return dynamic_cast<fwcluster::FullHost*>(&host);
}

SubsystemCounters ReadSubsystems(Cluster& cluster) {
  SubsystemCounters c;
  for (int i = 0; i < cluster.num_hosts(); ++i) {
    fwcluster::FullHost* full = AsFullHost(cluster.host(i));
    if (full == nullptr) {
      continue;
    }
    const fwobs::MetricsRegistry& m = full->env().metrics();
    c.restores += m.CounterValue("hv.vm.restore.count");
    c.creates += m.CounterValue("hv.vm.create.count");
    c.cow_faults += m.CounterValue("mem.fault.cow.count");
    c.minor_faults += m.CounterValue("mem.fault.minor.count");
    c.major_faults += m.CounterValue("mem.fault.major.count");
    c.frames += m.CounterValue("mem.frame.alloc.count");
    c.snapshot_hits += m.CounterValue("store.snapshot.hit.count");
    c.snapshot_misses += m.CounterValue("store.snapshot.miss.count");
    c.reseeds += m.CounterValue("fw.uniqueness.reseed.count");
    if (const fwobs::Histogram* h = m.FindHistogram("bus.produce.micros")) {
      c.produce_us.Merge(h->stats());
    }
    if (const fwobs::Histogram* h = m.FindHistogram("bus.consume.micros")) {
      c.consume_us.Merge(h->stats());
    }
  }
  return c;
}

struct PassResult {
  PassResult() {}
  int replica = 0;
  bool traced = false;
  double calibrate_s = 0.0;
  double hosts_s = 0.0;
  double install_s = 0.0;
  int64_t wall_ns = 0;  // Measured phase: load generation through drain.
  uint64_t events = 0;
  uint64_t invocations = 0;
  double sim_seconds = 0.0;  // Simulated clock at the end of the drain.
  Cluster::Rollup rollup;
  uint64_t digest = 0;
  SubsystemCounters subsystems;
  std::vector<std::string> violations;
  // Traced passes only.
  int64_t layer_ns[kLayers] = {};
  uint64_t layer_calls[kLayers] = {};
  HostCalls host;
  fwbase::SampleStats queue_wait_ms;
  uint64_t decomposed_requests = 0;  // Single-attempt requests checked exactly.
  std::vector<Span> spans;
  std::string signature;  // SimSignature(), fixed before samples are dropped.

  // A repeat pass only contributes its signature and timings: drop the
  // per-request samples so memory does not grow with the pass count.
  void DropSamples() {
    rollup.latency_ms = fwbase::SampleStats();
    rollup.startup_ms = fwbase::SampleStats();
    subsystems = SubsystemCounters();
    host = HostCalls();
    queue_wait_ms = fwbase::SampleStats();
  }

  double setup_s() const { return calibrate_s + hosts_s + install_s; }
  double ns_per_inv() const {
    return static_cast<double>(wall_ns) / static_cast<double>(invocations);
  }
  int64_t timed_ns() const {
    int64_t sum = 0;
    for (int l = 0; l < kLayers; ++l) {
      sum += layer_ns[l];
    }
    return sum;
  }
};

// Decomposition checks on a traced pass: the host-time layers never count
// nested time twice and fit inside the measured wall, every request crossed
// the load generator and the front end exactly once, and for every
// single-attempt completion, queue wait + host service == Outcome::latency.
void CheckTrace(const Recorder& rec, Cluster& cluster, PassResult& r) {
  for (int l = 0; l < kLayers; ++l) {
    r.layer_ns[l] = rec.self_ns(static_cast<Layer>(l));
    r.layer_calls[l] = rec.calls(static_cast<Layer>(l));
  }
  const int64_t timed = r.timed_ns();
  if (timed != rec.root_ns()) {
    r.violations.push_back(StrFormat("layer self times sum to %" PRId64
                                     " ns but root spans cover %" PRId64 " ns",
                                     timed, rec.root_ns()));
  }
  if (timed > r.wall_ns) {
    r.violations.push_back(StrFormat("timed layers (%" PRId64
                                     " ns) exceed the measured wall (%" PRId64 " ns)",
                                     timed, r.wall_ns));
  }
  for (Layer l : {Layer::kLoadGen, Layer::kFrontend}) {
    if (rec.calls(l) != r.invocations) {
      r.violations.push_back(StrFormat("layer %d timed %" PRIu64 " calls for %" PRIu64
                                       " requests",
                                       static_cast<int>(l), rec.calls(l), r.invocations));
    }
  }

  const size_t n = static_cast<size_t>(r.invocations);
  std::vector<int64_t> submit_ns(n + 1, -1);
  std::vector<int64_t> invoke_start_ns(n + 1, -1);
  std::vector<int64_t> invoke_end_ns(n + 1, -1);
  std::vector<uint32_t> invokes(n + 1, 0);
  for (const Span& s : rec.spans()) {
    const bool invoke = std::strcmp(s.name, "host.invoke") == 0;
    if (s.request == 0 || s.request > n) {
      if (invoke) {
        r.violations.push_back(StrFormat("host.invoke span with request tag %" PRIu64, s.request));
      }
      continue;
    }
    if (invoke) {
      if (invokes[s.request]++ == 0) {
        invoke_start_ns[s.request] = s.sim_start_ns;
        invoke_end_ns[s.request] = s.sim_end_ns;
      }
    } else if (std::strcmp(s.name, "frontend.submit") == 0) {
      submit_ns[s.request] = s.sim_start_ns;
    }
  }
  uint64_t mismatches = 0;
  for (size_t id = 1; id <= n; ++id) {
    if (invokes[id] == 0) {
      continue;  // Shed or expired before reaching a host.
    }
    const int64_t queue_wait = invoke_start_ns[id] - submit_ns[id];
    r.queue_wait_ms.Add(static_cast<double>(queue_wait) / 1e6);
    const Cluster::Outcome& out = cluster.outcome(id);
    if (out.attempts != 1 || invokes[id] != 1 || !out.status.ok()) {
      continue;
    }
    ++r.decomposed_requests;
    const int64_t service = invoke_end_ns[id] - invoke_start_ns[id];
    if (queue_wait + service != out.latency.nanos()) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    r.violations.push_back(StrFormat("%" PRIu64 " of %" PRIu64
                                     " single-attempt requests: queue wait + host service != "
                                     "latency",
                                     mismatches, r.decomposed_requests));
  }
  if (r.decomposed_requests == 0) {
    r.violations.push_back("no single-attempt completion to check the latency decomposition on");
  }
}

// Exactly-once terminal outcomes, an on-time generator, dense request ids,
// and (FullHost) distinct guest-minted request ids across completions.
void CheckOutcomes(const Workload& w, Cluster& cluster, const LoadStats& load, PassResult& r) {
  const Cluster::Rollup& ru = r.rollup;
  if (cluster.submitted() != w.invocations) {
    r.violations.push_back(StrFormat("submitted %" PRIu64 " of %" PRIu64, cluster.submitted(),
                                     w.invocations));
  }
  if (ru.completed + ru.failed != ru.submitted) {
    r.violations.push_back(StrFormat("completed %" PRIu64 " + failed %" PRIu64
                                     " != submitted %" PRIu64,
                                     ru.completed, ru.failed, ru.submitted));
  }
  uint64_t not_once = 0;
  std::set<uint64_t> guest_ids;
  uint64_t duplicate_ids = 0;
  uint64_t missing_ids = 0;
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    const Cluster::Outcome& out = cluster.outcome(id);
    if (out.completions != 1) {
      ++not_once;
    }
    if (w.full_fidelity && out.status.ok()) {
      if (out.request_id == 0) {
        ++missing_ids;
      } else if (!guest_ids.insert(out.request_id).second) {
        ++duplicate_ids;
      }
    }
  }
  if (not_once > 0) {
    r.violations.push_back(StrFormat("%" PRIu64 " requests not terminal exactly once", not_once));
  }
  if (load.late > 0) {
    r.violations.push_back(StrFormat("%" PRIu64 " submits ran after their due sim time",
                                     load.late));
  }
  if (load.id_mismatch > 0) {
    r.violations.push_back(StrFormat("%" PRIu64 " submits got an unexpected request id",
                                     load.id_mismatch));
  }
  if (duplicate_ids > 0 || missing_ids > 0) {
    r.violations.push_back(StrFormat("guest request ids: %" PRIu64 " duplicated, %" PRIu64
                                     " missing across %" PRIu64 " completions",
                                     duplicate_ids, missing_ids, ru.completed));
  }
}

fwcluster::HostCalibration Calibrate(uint64_t seed) {
  fwcluster::CalibrationOptions options;
  options.seed = seed;
  return fwcluster::CalibratePlatform(
      [](fwcore::HostEnv& env) -> std::unique_ptr<fwcore::ServerlessPlatform> {
        return std::make_unique<fwcore::FireworksPlatform>(env);
      },
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs), options);
}

// Deterministic simulated results of one pass; every pass of a replica, traced
// or not, must agree.
std::string SimSignature(const PassResult& p) {
  const Cluster::Rollup& ru = p.rollup;
  return StrFormat("digest=%016" PRIx64 " completed=%" PRIu64 " failed=%" PRIu64
                   " p50=%.9f p99=%.9f good=%" PRIu64 " pss=%.3f hours=%.12f events=%" PRIu64,
                   p.digest, ru.completed, ru.failed, ru.latency_ms.Percentile(50.0),
                   ru.latency_ms.Percentile(99.0), ru.slo_good, ru.peak_pss_bytes, ru.host_hours,
                   p.events);
}

double SecondsSince(int64_t& mark) {
  const int64_t now = WallNanos();
  const double s = static_cast<double>(now - mark) / 1e9;
  mark = now;
  return s;
}

PassResult RunPass(const Workload& w, int replica, uint64_t seed, bool traced) {
  PassResult r;
  r.replica = replica;
  r.traced = traced;
  r.invocations = w.invocations;

  int64_t mark = WallNanos();
  fwcluster::ModelHost::Config model;
  if (!w.full_fidelity) {
    model.calibration = Calibrate(seed);
  }
  r.calibrate_s = SecondsSince(mark);

  fwsim::Simulation sim(seed);
  std::unique_ptr<Recorder> rec = traced ? std::make_unique<Recorder>(sim) : nullptr;
  Recorder* recp = rec.get();
  auto make_host = [&w, &model, recp](fwsim::Simulation& s, int index,
                                      bool joined) -> std::unique_ptr<fwcluster::ClusterHost> {
    std::unique_ptr<fwcluster::ClusterHost> host;
    if (w.full_fidelity) {
      host = std::make_unique<fwcluster::FullHost>(s, index, fwcluster::FullHost::Config());
    } else {
      host = std::make_unique<fwcluster::ModelHost>(s, index, model);
    }
    if (recp != nullptr) {
      host = std::make_unique<TimedHost>(std::move(host), *recp, joined);
    }
    return host;
  };
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < w.initial_hosts; ++i) {
    hosts.push_back(make_host(sim, i, /*joined=*/false));
  }
  Cluster::Config config = w.cluster;
  if (config.fleet.enabled) {
    config.host_factory = [make_host](fwsim::Simulation& s, int index) {
      return make_host(s, index, /*joined=*/true);
    };
  }
  Cluster cluster(sim, std::move(hosts), config);
  r.hosts_s = SecondsSince(mark);

  std::vector<std::string> names;
  for (const fwlang::FunctionSource& fn : w.apps) {
    const fwbase::Status s = fwsim::RunSync(sim, cluster.InstallAll(fn));
    if (!s.ok()) {
      r.violations.push_back("install " + fn.name + ": " + s.ToString());
      cluster.Shutdown();
      sim.Run();
      return r;
    }
    names.push_back(fn.name);
  }
  r.install_s = SecondsSince(mark);

  const SubsystemCounters before = ReadSubsystems(cluster);
  fwwork::LoadGenConfig load_config = w.load;
  load_config.seed = seed;
  LoadStats load;
  if (recp != nullptr) {
    recp->StartMeasure();
  }
  const uint64_t events_before = sim.events_processed();
  const int64_t wall_before = WallNanos();
  sim.Spawn(DriveLoad(sim, cluster, load_config, w.invocations, &names, recp, &load));
  cluster.Drain(w.invocations);
  r.wall_ns = WallNanos() - wall_before;
  r.events = sim.events_processed() - events_before;
  if (recp != nullptr) {
    recp->StopMeasure();
  }

  r.sim_seconds = sim.Now().seconds();
  r.rollup = cluster.ComputeRollup();
  r.digest = cluster.OutcomeDigest();
  r.subsystems = ReadSubsystems(cluster).Since(before);
  CheckOutcomes(w, cluster, load, r);
  // Let work still in flight after the drain (clone preparations, restores)
  // finish: the hosts are destroyed before the simulation, which destroys
  // every coroutine frame still suspended, and a suspended restore would then
  // release memory into a host that no longer exists.
  sim.Run();
  if (recp != nullptr) {
    CheckTrace(*recp, cluster, r);
    r.host = recp->host();
    r.spans = recp->TakeSpans();
  }
  r.signature = SimSignature(r);
  return r;
}

// ---------------------------------------------------------------------------
// Pooling over replicas
// ---------------------------------------------------------------------------

void MergeHostCalls(HostCalls& into, const HostCalls& from) {
  into.invoke_calls += from.invoke_calls;
  into.invoke_failed += from.invoke_failed;
  into.service_ms.Merge(from.service_ms);
  into.startup_ms.Merge(from.startup_ms);
  into.exec_ms.Merge(from.exec_ms);
  into.others_ms.Merge(from.others_ms);
  into.prepares += from.prepares;
  into.prepares_ok += from.prepares_ok;
  into.prepare_ms.Merge(from.prepare_ms);
  into.discards += from.discards;
  into.join_to_first_invoke_s.Merge(from.join_to_first_invoke_s);
}

// Simulated results summed (counts, host-hours) or merged (samples) over one
// pass per replica.
struct Pooled {
  int replicas = 0;
  uint64_t invocations = 0;
  uint64_t events = 0;
  double sim_seconds = 0.0;
  double peak_pss_bytes_sum = 0.0;
  Cluster::Rollup rollup;
  SubsystemCounters subsystems;
  HostCalls host;
  fwbase::SampleStats queue_wait_ms;
};

Pooled Pool(const std::vector<const PassResult*>& replicas) {
  Pooled p;
  Cluster::Rollup& ru = p.rollup;
  fwcluster::DistributionStats& d = ru.distribution;
  for (const PassResult* r : replicas) {
    const Cluster::Rollup& x = r->rollup;
    ++p.replicas;
    p.invocations += r->invocations;
    p.events += r->events;
    p.sim_seconds += r->sim_seconds;
    p.peak_pss_bytes_sum += x.peak_pss_bytes;
    ru.submitted += x.submitted;
    ru.completed += x.completed;
    ru.failed += x.failed;
    ru.retries += x.retries;
    ru.warm_hits += x.warm_hits;
    ru.shed += x.shed;
    ru.expired += x.expired;
    ru.suspects += x.suspects;
    ru.detector_deaths += x.detector_deaths;
    ru.slo_good += x.slo_good;
    ru.hosts_added += x.hosts_added;
    ru.hosts_removed += x.hosts_removed;
    ru.host_hours += x.host_hours;
    ru.latency_ms.Merge(x.latency_ms);
    d.cold_fetches += x.distribution.cold_fetches;
    d.coalesced += x.distribution.coalesced;
    d.chunks_from_cache += x.distribution.chunks_from_cache;
    d.chunks_from_peer += x.distribution.chunks_from_peer;
    d.chunks_from_registry += x.distribution.chunks_from_registry;
    d.bytes_from_peer += x.distribution.bytes_from_peer;
    d.bytes_from_registry += x.distribution.bytes_from_registry;
    d.warm_restores += x.distribution.warm_restores;
    p.subsystems.Add(r->subsystems);
    MergeHostCalls(p.host, r->host);
    p.queue_wait_ms.Merge(r->queue_wait_ms);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// `replicas`: the first pass of each replica; `all`: every untraced pass.
MetricList EndToEnd(const std::vector<const PassResult*>& replicas,
                    const std::vector<const PassResult*>& all) {
  const Pooled p = Pool(replicas);
  const Cluster::Rollup& ru = p.rollup;
  std::vector<double> ns;
  std::vector<double> setup;
  for (const PassResult* q : all) {
    ns.push_back(q->ns_per_inv());
    setup.push_back(q->setup_s());
  }
  MetricList m;
  m.emplace_back("host_ns_per_inv", Median(ns), "ns",
                 StrFormat("median of %zu passes x %" PRIu64 " requests", all.size(),
                           all.front()->invocations));
  m.emplace_back("setup_s", Median(setup), "s",
                 StrFormat("median of %zu set-ups (calibrate + hosts + install)", setup.size()));
  m.emplace_back("peak_rss_mib", PeakRssMiB(), "MiB", "process high-water (getrusage)");
  m.push_back(Percentile("sim_p50_ms", ru.latency_ms, 50.0, "ms"));
  m.push_back(Percentile("sim_p99_ms", ru.latency_ms, 99.0, "ms"));
  m.push_back(RatioMetric("slo_attainment", ru.slo_good, ru.submitted, "ratio",
                          "completed within SLO", "attempted"));
  m.emplace_back("sim_peak_pss_mib", p.peak_pss_bytes_sum / p.replicas / kMiB, "MiB",
                 StrFormat("mean over %d replicas of the peak 250 ms fleet PSS sample",
                           p.replicas));
  m.emplace_back("sim_host_hours", ru.host_hours, "h",
                 StrFormat("fleet ledger summed over %d replicas, %.1f s simulated", p.replicas,
                           p.sim_seconds));
  return m;
}

// `replicas`: the first traced pass of each replica; `traced` / `untraced`:
// every pass of that kind.
MetricList PerLayer(const std::vector<const PassResult*>& replicas,
                    const std::vector<const PassResult*>& traced,
                    const std::vector<const PassResult*>& untraced) {
  const Pooled p = Pool(replicas);
  const Cluster::Rollup& ru = p.rollup;
  const HostCalls& h = p.host;
  const fwcluster::DistributionStats& d = ru.distribution;
  const SubsystemCounters& s = p.subsystems;

  std::vector<double> layer[kLayers];
  std::vector<double> loop;
  std::vector<double> per_event;
  std::vector<double> traced_ns;
  for (const PassResult* q : traced) {
    const double inv = static_cast<double>(q->invocations);
    for (int l = 0; l < kLayers; ++l) {
      layer[l].push_back(static_cast<double>(q->layer_ns[l]) / inv);
    }
    loop.push_back(static_cast<double>(q->wall_ns - q->timed_ns()) / inv);
    per_event.push_back(static_cast<double>(q->wall_ns) / static_cast<double>(q->events));
    traced_ns.push_back(q->ns_per_inv());
  }
  std::vector<double> untraced_ns;
  std::vector<double> cal;
  std::vector<double> hosts;
  std::vector<double> install;
  for (const PassResult* q : untraced) {
    untraced_ns.push_back(q->ns_per_inv());
    cal.push_back(q->calibrate_s);
    hosts.push_back(q->hosts_s);
    install.push_back(q->install_s);
  }
  uint64_t sync_calls = 0;
  for (const PassResult* q : replicas) {
    sync_calls += q->layer_calls[static_cast<int>(Layer::kHostSync)];
  }
  const std::string med = StrFormat("median of %zu traced passes", traced.size());
  const std::string setups = StrFormat("median of %zu untraced set-ups", cal.size());
  const uint64_t inv = p.invocations;

  MetricList m;
  m.emplace_back("loadgen.next_ns", Median(layer[0]), "ns", med + ", per request");
  m.emplace_back("frontend.submit_ns", Median(layer[1]), "ns", med + ", self time per request");
  m.push_back(Percentile("frontend.queue_wait_p50_ms", p.queue_wait_ms, 50.0, "ms"));
  m.push_back(Percentile("frontend.queue_wait_p99_ms", p.queue_wait_ms, 99.0, "ms"));
  m.push_back(Count("frontend.shed", ru.shed, "rejected at admission"));
  m.push_back(Count("frontend.expired", ru.expired, "deadline passed in queue"));
  m.push_back(Count("frontend.retries", ru.retries, "re-dispatches"));
  m.emplace_back("host.sync_ns", Median(layer[2]), "ns",
                 med + StrFormat(", per request; %" PRIu64 " calls over the replicas", sync_calls));
  m.push_back(Percentile("host.service_p50_ms", h.service_ms, 50.0, "ms"));
  m.push_back(Percentile("host.service_p99_ms", h.service_ms, 99.0, "ms"));
  m.push_back(Percentile("host.startup_p50_ms", h.startup_ms, 50.0, "ms"));
  m.push_back(Percentile("host.startup_p99_ms", h.startup_ms, 99.0, "ms"));
  m.push_back(Percentile("host.exec_p50_ms", h.exec_ms, 50.0, "ms"));
  m.push_back(Percentile("host.others_p50_ms", h.others_ms, 50.0, "ms"));
  m.push_back(Count("host.invoke_calls", h.invoke_calls, "Invoke calls"));
  m.push_back(Count("host.invoke_failed", h.invoke_failed, "Invoke calls returning an error"));
  m.push_back(RatioMetric("warmpool.hit_rate", ru.warm_hits, ru.completed, "ratio", "warm hits",
                          "completed"));
  m.push_back(Count("warmpool.prepares", h.prepares, "PrepareClone calls"));
  m.push_back(Count("warmpool.discards", h.discards, "clones discarded or dropped"));
  m.push_back(RatioMetric("warmpool.clone_use_ratio", ru.warm_hits, h.prepares_ok, "ratio",
                          "warm hits", "clones prepared"));
  m.push_back(Percentile("warmpool.prepare_p50_ms", h.prepare_ms, 50.0, "ms"));
  m.push_back(Count("dist.cold_fetches", d.cold_fetches, "snapshot pulls"));
  m.push_back(Count("dist.coalesced", d.coalesced, "pulls joined in flight"));
  m.emplace_back("dist.registry_mib", static_cast<double>(d.bytes_from_registry) / kMiB, "MiB",
                 StrFormat("%" PRIu64 " chunks", d.chunks_from_registry));
  m.emplace_back("dist.peer_mib", static_cast<double>(d.bytes_from_peer) / kMiB, "MiB",
                 StrFormat("%" PRIu64 " chunks", d.chunks_from_peer));
  m.push_back(RatioMetric("dist.cache_chunk_ratio", d.chunks_from_cache,
                          d.chunks_from_cache + d.chunks_from_peer + d.chunks_from_registry,
                          "ratio", "chunks from local cache", "chunks needed"));
  m.push_back(Count("dist.warm_restores", d.warm_restores, "working-set prefetches"));
  m.push_back(Count("fleet.hosts_added", ru.hosts_added, "AddHost provisions"));
  m.push_back(Count("fleet.hosts_removed", ru.hosts_removed, "RemoveHost decommissions"));
  m.push_back(Percentile("fleet.join_to_first_invoke_p50_s", h.join_to_first_invoke_s, 50.0, "s"));
  m.push_back(Count("health.suspects", ru.suspects, "alive->suspect transitions"));
  m.push_back(Count("health.deaths", ru.detector_deaths, "->dead transitions"));
  m.push_back(RatioMetric("simcore.events_per_inv", p.events, inv, "1/inv", "events", "requests"));
  m.emplace_back("simcore.ns_per_event", Median(per_event), "ns", med);
  m.emplace_back("simcore.loop_ns", Median(loop), "ns",
                 med + ", measured wall minus timed layers, per request");
  m.push_back(RatioMetric("vmm.restores_per_inv", s.restores, inv, "1/inv", "VM restores",
                          "requests"));
  m.push_back(RatioMetric("vmm.creates_per_inv", s.creates, inv, "1/inv", "VM creates",
                          "requests"));
  m.push_back(RatioMetric("mem.cow_faults_per_inv", s.cow_faults, inv, "1/inv", "CoW faults",
                          "requests"));
  m.push_back(RatioMetric("mem.minor_faults_per_inv", s.minor_faults, inv, "1/inv",
                          "minor faults", "requests"));
  m.push_back(RatioMetric("mem.major_faults_per_inv", s.major_faults, inv, "1/inv",
                          "major faults", "requests"));
  m.push_back(RatioMetric("mem.frames_per_inv", s.frames, inv, "1/inv", "frames allocated",
                          "requests"));
  m.push_back(Percentile("msgbus.produce_p50_us", s.produce_us, 50.0, "us"));
  m.push_back(Percentile("msgbus.consume_p50_us", s.consume_us, 50.0, "us"));
  m.push_back(RatioMetric("storage.snapshot_hit_ratio", s.snapshot_hits,
                          s.snapshot_hits + s.snapshot_misses, "ratio", "snapshot store hits",
                          "lookups"));
  m.push_back(RatioMetric("core.reseeds_per_inv", s.reseeds, inv, "1/inv", "guest reseeds",
                          "requests"));
  m.emplace_back("setup.calibrate_s", Median(cal), "s", setups);
  m.emplace_back("setup.hosts_s", Median(hosts), "s", setups);
  m.emplace_back("setup.install_s", Median(install), "s", setups);
  const double with = Median(traced_ns);
  const double without = Median(untraced_ns);
  m.emplace_back("trace.overhead_pct", without > 0 ? 100.0 * (with / without - 1.0) : 0.0, "%",
                 StrFormat("traced %.1f ns / untraced %.1f ns per request (medians of %zu / %zu "
                           "passes)",
                           with, without, traced.size(), untraced.size()));
  return m;
}

void PrintTable(const char* title, const MetricList& metrics) {
  std::printf("\n%s\n", title);
  std::printf("  %-34s %16s %-6s %s\n", "metric", "value", "unit", "basis");
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.basis.c_str());
  }
}

// Host-time decomposition of one traced pass: the rows sum to the wall.
void PrintDecomposition(const PassResult& p) {
  static const char* const kNames[kLayers] = {"loadgen.next", "frontend.submit (self)",
                                              "host sync calls"};
  const double inv = static_cast<double>(p.invocations);
  const double wall = static_cast<double>(p.wall_ns);
  std::printf("\nhost-time decomposition (last traced pass, replica %d, %" PRIu64 " requests)\n",
              p.replica, p.invocations);
  for (int l = 0; l < kLayers; ++l) {
    std::printf("  %-26s %12.1f ns/req %6.2f%%  %" PRIu64 " calls\n", kNames[l],
                static_cast<double>(p.layer_ns[l]) / inv,
                100.0 * Ratio(static_cast<double>(p.layer_ns[l]), wall), p.layer_calls[l]);
  }
  const double loop = static_cast<double>(p.wall_ns - p.timed_ns());
  std::printf("  %-26s %12.1f ns/req %6.2f%%  %" PRIu64 " events\n", "event loop (residual)",
              loop / inv, 100.0 * Ratio(loop, wall), p.events);
  std::printf("  %-26s %12.1f ns/req  (sum of the rows above)\n", "measured wall",
              p.ns_per_inv());
  std::printf("  latency decomposition exact on %" PRIu64 " single-attempt requests\n",
              p.decomposed_requests);
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed, const MetricList& metrics) {
  std::string out = StrFormat("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                              ", \"metrics\": {",
                              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                     m.name.c_str(), v, m.unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr,
               "%s\nusage: fwperf --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--invocations N] [--replicas K]\nworkloads:",
               msg.c_str());
  for (const std::string& n : WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else if (flag == "--invocations") {
      o.invocations = std::strtoull(v, &end, 10);
    } else if (flag == "--replicas") {
      o.replicas = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      Usage("bad value for " + flag);
    }
  }
  if (o.workload.empty()) {
    Usage("--workload is required");
  }
  if (!(o.seconds > 0.0) || o.replicas < 0) {
    Usage("--seconds must be > 0 and --replicas >= 1");
  }
  return o;
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  std::optional<Workload> wl = MakeWorkload(opt.workload, opt.invocations);
  if (!wl.has_value()) {
    Usage("unknown workload " + opt.workload);
  }
  if (opt.replicas > 0) {
    wl->replicas = opt.replicas;
  }
  const Workload& w = *wl;
  std::printf("perfbench %s, seed %" PRIu64 ", %s run\n  %s\n", w.name.c_str(), opt.seed,
              opt.trace ? "traced" : "untraced", DescribeLoad(w).c_str());
  std::printf("  simulated platform; the model is unvalidated against real hardware, so no "
              "error figure is claimed for sim_* metrics\n");
  std::fflush(stdout);

  // Cycle through the replicas until the budget is spent. A traced run runs
  // each replica untraced and then traced, so both see the same conditions.
  const size_t per_replica = opt.trace ? 2 : 1;
  const size_t cycle = per_replica * static_cast<size_t>(w.replicas);
  std::vector<PassResult> passes;
  const int64_t run_start = WallNanos();
  auto elapsed_s = [run_start] { return static_cast<double>(WallNanos() - run_start) / 1e9; };
  double longest_pass_s = 0.0;
  std::vector<bool> ran(cycle, false);  // Per (replica, traced) kind.
  while (passes.size() < cycle || elapsed_s() < opt.seconds) {
    if (passes.size() >= cycle && elapsed_s() + longest_pass_s > kMaxRunSeconds) {
      break;
    }
    const size_t i = passes.size();
    const int replica = static_cast<int>((i / per_replica) % static_cast<size_t>(w.replicas));
    const bool traced = opt.trace && i % 2 == 1;
    if (traced) {
      // Only the last traced pass's spans are written out.
      for (PassResult& earlier : passes) {
        std::vector<Span>().swap(earlier.spans);
      }
    }
    const int64_t t0 = WallNanos();
    passes.push_back(RunPass(w, replica, ReplicaSeed(opt.seed, replica), traced));
    longest_pass_s = std::max(longest_pass_s, static_cast<double>(WallNanos() - t0) / 1e9);
    if (ran[i % cycle]) {
      passes.back().DropSamples();
    }
    ran[i % cycle] = true;
    if (!passes.back().violations.empty()) {
      break;  // A broken pass ends the run; its violations are reported below.
    }
  }

  std::vector<std::string> violations;
  std::vector<const PassResult*> untraced;
  std::vector<const PassResult*> traced;
  std::vector<const PassResult*> first_untraced(static_cast<size_t>(w.replicas), nullptr);
  std::vector<const PassResult*> first_traced(static_cast<size_t>(w.replicas), nullptr);
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    (p.traced ? traced : untraced).push_back(&p);
    std::vector<const PassResult*>& first = p.traced ? first_traced : first_untraced;
    if (first[static_cast<size_t>(p.replica)] == nullptr) {
      first[static_cast<size_t>(p.replica)] = &p;
    }
    for (const std::string& v : p.violations) {
      violations.push_back(StrFormat("pass %zu: %s", i + 1, v.c_str()));
    }
    const PassResult* reference = first_untraced[static_cast<size_t>(p.replica)];
    if (reference != nullptr && p.signature != reference->signature) {
      violations.push_back(StrFormat("pass %zu (%s, replica %d) diverged from the replica's "
                                     "first untraced pass:\n    %s\n    %s",
                                     i + 1, p.traced ? "traced" : "untraced", p.replica,
                                     p.signature.c_str(), reference->signature.c_str()));
    }
  }
  std::printf("\n%zu passes (%zu untraced, %zu traced) over %d replicas in %.2f s\n",
              passes.size(), untraced.size(), traced.size(), w.replicas, elapsed_s());
  for (const PassResult* p : first_untraced) {
    if (p != nullptr) {
      std::printf("  replica %d: %s\n", p->replica, p->signature.c_str());
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.rollup.submitted;
    failed += p.rollup.failed;
  }
  const bool complete =
      passes.size() >= cycle &&
      std::find(first_untraced.begin(), first_untraced.end(), nullptr) == first_untraced.end();
  MetricList metrics;
  if (violations.empty() && complete) {
    if (opt.trace) {
      metrics = PerLayer(first_traced, traced, untraced);
      PrintDecomposition(*traced.back());
      PrintTable("per-layer metrics (traced passes; counts pooled over the replicas)", metrics);
      if (!opt.spans_path.empty()) {
        if (WriteSpans(opt.spans_path, traced.back()->spans)) {
          std::printf("\nwrote %zu spans of the last traced pass to %s\n",
                      traced.back()->spans.size(), opt.spans_path.c_str());
        } else {
          violations.push_back("cannot write spans to " + opt.spans_path);
        }
      }
    } else {
      metrics = EndToEnd(first_untraced, untraced);
      PrintTable("end-to-end metrics (untraced passes; sim_* pooled over the replicas)", metrics);
    }
  } else if (violations.empty()) {
    violations.push_back("the run ended before every replica completed a pass");
  }
  const bool correct = violations.empty();
  std::printf("\ncorrectness: %s\n", correct ? "all checks passed" : "VIOLATIONS");
  for (const std::string& v : violations) {
    std::printf("  %s\n", v.c_str());
  }
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fwperf

int main(int argc, char** argv) { return fwperf::Main(argc, argv); }
