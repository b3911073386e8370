#include "src/cluster/scheduler.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/base/strings.h"

namespace fwcluster {

const char* SchedulerPolicyName(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kRoundRobin:
      return "round-robin";
    case SchedulerPolicy::kLeastLoaded:
      return "least-loaded";
    case SchedulerPolicy::kSnapshotLocality:
      return "snapshot-locality";
  }
  return "unknown";
}

std::optional<SchedulerPolicy> ParseSchedulerPolicy(const std::string& name) {
  for (SchedulerPolicy p : AllSchedulerPolicies()) {
    if (name == SchedulerPolicyName(p)) {
      return p;
    }
  }
  return std::nullopt;
}

std::vector<SchedulerPolicy> AllSchedulerPolicies() {
  return {SchedulerPolicy::kRoundRobin, SchedulerPolicy::kLeastLoaded,
          SchedulerPolicy::kSnapshotLocality};
}

uint64_t HashKey(const std::string& key) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ull;  // FNV prime.
  }
  // FNV-1a barely diffuses the upper bits of short keys ("app-0".."app-63"
  // all land in the top sixth of the 64-bit range), which skews ring
  // placement badly. A murmur3-style finalizer restores avalanche.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// ---------------------------------------------------------------------------
// ConsistentHashRing
// ---------------------------------------------------------------------------

namespace {
bool PointBefore(const std::pair<uint64_t, int>& entry, uint64_t point) {
  return entry.first < point;
}
}  // namespace

ConsistentHashRing::ConsistentHashRing(int vnodes_per_host)
    : vnodes_per_host_(vnodes_per_host) {
  FW_CHECK(vnodes_per_host > 0);
}

void ConsistentHashRing::AddHost(int host) {
  if (members_.count(host) > 0) {
    return;
  }
  members_[host] = true;
  if (seen_.size() <= static_cast<size_t>(host)) {
    seen_.resize(static_cast<size_t>(host) + 1, 0);
  }
  // New points go to the tail, then one sort + linear merge keeps the ring
  // ordered (a membership change is rare; walks are per dispatch).
  const size_t old_size = ring_.size();
  for (int v = 0; v < vnodes_per_host_; ++v) {
    const uint64_t point = HashKey(fwbase::StrFormat("host-%d-vnode-%d", host, v));
    const auto old_end = ring_.begin() + static_cast<std::ptrdiff_t>(old_size);
    const auto it = std::lower_bound(ring_.begin(), old_end, point, PointBefore);
    if (it != old_end && it->first == point) {
      // 64-bit collision between two hosts' vnodes: keep the smaller host id
      // so ownership never depends on insertion order.
      it->second = std::min(it->second, host);
    } else {
      ring_.emplace_back(point, host);
    }
  }
  const auto tail = ring_.begin() + static_cast<std::ptrdiff_t>(old_size);
  std::sort(tail, ring_.end());
  ring_.erase(std::unique(tail, ring_.end()), ring_.end());  // Own-vnode collisions.
  std::inplace_merge(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(old_size),
                     ring_.end());
}

void ConsistentHashRing::RemoveHost(int host) {
  if (members_.erase(host) == 0) {
    return;
  }
  // Every point mapped to `host` is one of its own vnodes (a collision it
  // lost maps to the smaller id and stays), so this drops exactly those.
  std::erase_if(ring_, [host](const std::pair<uint64_t, int>& e) { return e.second == host; });
}

bool ConsistentHashRing::Contains(int host) const { return members_.count(host) > 0; }

int ConsistentHashRing::Owner(const std::string& key) const {
  return OwnerIf(key, [](int) { return true; });
}

int ConsistentHashRing::OwnerIf(const std::string& key,
                                fwbase::FunctionRef<bool(int)> alive) const {
  int found = -1;
  Walk(key, [&found, alive](int host) {
    if (alive(host)) {
      found = host;
      return false;
    }
    return true;
  });
  return found;
}

void ConsistentHashRing::Walk(const std::string& key,
                              fwbase::FunctionRef<bool(int)> visit) const {
  if (ring_.empty()) {
    return;
  }
  // A fresh stamp marks every host unvisited at once; the stamp never wraps
  // in practice (2^64 walks).
  const uint64_t stamp = ++walk_stamp_;
  size_t i = static_cast<size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), HashKey(key), PointBefore) - ring_.begin());
  for (size_t step = 0; step < ring_.size(); ++step, ++i) {
    if (i == ring_.size()) {
      i = 0;  // Wrap around the ring.
    }
    const int host = ring_[i].second;
    uint64_t& seen = seen_[static_cast<size_t>(host)];
    if (seen != stamp) {
      seen = stamp;
      if (!visit(host)) {
        return;
      }
      // The visitor must not have started another walk: it would have reused
      // the visited set this walk is still relying on.
      FW_CHECK_MSG(walk_stamp_ == stamp, "ConsistentHashRing::Walk is not re-entrant");
    }
  }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

PickInput PickInput::Over(const std::vector<HostView>& views) {
  PickInput in(views);
  for (const HostView& v : views) {
    if (v.alive) {
      ++in.alive_count;
      in.alive_inflight += v.inflight;
    }
  }
  return in;
}

namespace {

class RoundRobinScheduler : public Scheduler {
 public:
  SchedulerPolicy policy() const override { return SchedulerPolicy::kRoundRobin; }

  int Pick(const std::string& app, const PickInput& in) override {
    const int n = static_cast<int>(in.hosts.size());
    // First rotation over preferred (healthy) hosts, then over anything
    // alive: a suspect/pressured host only serves when nothing better can.
    for (const bool healthy_only : {true, false}) {
      for (int i = 0; i < n; ++i) {
        const int h = (next_ + i) % n;
        if (healthy_only ? in.preferred(h) : in.alive(h)) {
          next_ = (h + 1) % n;
          return h;
        }
      }
    }
    return -1;
  }

 private:
  int next_ = 0;
};

// Least-loaded alive host in `in`, restricted to preferred() hosts when
// `healthy_only`; -1 when the restricted set is empty. Shared by the
// least-loaded policy and the locality policy's spill path.
int PickLeastLoaded(const PickInput& in, bool healthy_only) {
  const std::vector<HostView>& hosts = in.hosts;
  int best = -1;
  for (int h = 0; h < static_cast<int>(hosts.size()); ++h) {
    if (healthy_only ? !in.preferred(h) : !in.alive(h)) {
      continue;
    }
    if (best < 0 || hosts[h].inflight < hosts[best].inflight) {
      best = h;  // Ties keep the lowest index: deterministic.
    }
  }
  return best;
}

class LeastLoadedScheduler : public Scheduler {
 public:
  SchedulerPolicy policy() const override { return SchedulerPolicy::kLeastLoaded; }

  int Pick(const std::string& app, const PickInput& in) override {
    const int healthy = PickLeastLoaded(in, /*healthy_only=*/true);
    return healthy >= 0 ? healthy : PickLeastLoaded(in, /*healthy_only=*/false);
  }
};

class SnapshotLocalityScheduler : public Scheduler {
 public:
  // CHWBL overload bound: c = 1.25 of the alive-host mean inflight, with
  // additive slack so an idle cluster (mean ≈ 0) still accepts work.
  static constexpr double kLoadBoundFactor = 1.25;
  static constexpr int64_t kLoadBoundSlack = 8;

  SnapshotLocalityScheduler(int num_hosts, int vnodes_per_host) : ring_(vnodes_per_host) {
    for (int h = 0; h < num_hosts; ++h) {
      ring_.AddHost(h);
    }
  }

  SchedulerPolicy policy() const override { return SchedulerPolicy::kSnapshotLocality; }

  int Pick(const std::string& app, const PickInput& in) override {
    // Bounded loads (Mirrokni et al.): accept the first alive owner clockwise
    // whose inflight is below c× the alive-host mean (plus slack for cold
    // clusters), so a Zipf head app spills instead of melting its owner. The
    // mean comes from the caller's running totals: no pass over the fleet.
    if (in.alive_count == 0) {
      return -1;
    }
    const int64_t bound =
        static_cast<int64_t>(kLoadBoundFactor * static_cast<double>(in.alive_inflight) /
                             static_cast<double>(in.alive_count)) +
        kLoadBoundSlack;
    // Four ring passes, strictly weakening: healthy owners already holding
    // the app's snapshot, then any healthy owner, then alive holders, then
    // anything alive. With every host holding every snapshot (the default —
    // no distribution tier) passes 1/2 and 3/4 coincide and this is the
    // original two-pass walk. With a distribution tier, a holder within the
    // load bound wins over an equally-healthy non-holder, so a warm chunk
    // cache keeps attracting its app instead of forcing cold registry pulls.
    struct Pass {
      bool healthy_only;
      bool holders_only;
    };
    static constexpr Pass kPasses[] = {
        {true, true}, {true, false}, {false, true}, {false, false}};
    int chosen = -1;
    for (const Pass& pass : kPasses) {
      ring_.Walk(app, [&in, bound, pass, &chosen](int h) {
        if (h >= static_cast<int>(in.hosts.size()) ||
            (pass.healthy_only ? !in.preferred(h) : !in.alive(h))) {
          return true;
        }
        if (pass.holders_only && !in.holds_snapshot(h)) {
          return true;
        }
        if (in.hosts[h].inflight <= bound) {
          chosen = h;
          return false;
        }
        return true;
      });
      if (chosen >= 0) {
        return chosen;
      }
    }
    // Every alive member host is above the bound (or the ring lost all alive
    // members): fall back to the least-loaded host, healthy first.
    const int healthy = PickLeastLoaded(in, /*healthy_only=*/true);
    return healthy >= 0 ? healthy : PickLeastLoaded(in, /*healthy_only=*/false);
  }

  void OnHostJoin(int host) override { ring_.AddHost(host); }
  void OnHostLeave(int host) override { ring_.RemoveHost(host); }

  std::vector<int> WarmTargets(const std::string& app, const std::vector<HostView>& hosts,
                               int want) const override {
    // Clockwise from the app's ring point: the first alive host is the
    // primary (where Pick sends steady-state traffic), then one host per
    // not-yet-covered zone until `want` targets. Deterministic — a pure
    // function of the ring and the views.
    std::vector<int> targets;
    std::map<int, bool> zones_covered;
    ring_.Walk(app, [&hosts, &targets, &zones_covered, want](int h) {
      if (h >= static_cast<int>(hosts.size()) || !hosts[h].alive) {
        return true;
      }
      if (targets.empty() || zones_covered.count(hosts[h].zone) == 0) {
        targets.push_back(h);
        zones_covered.emplace(hosts[h].zone, true);
      }
      return static_cast<int>(targets.size()) < want;
    });
    return targets;
  }

 private:
  ConsistentHashRing ring_;
};

}  // namespace

std::unique_ptr<Scheduler> MakeScheduler(SchedulerPolicy policy, int num_hosts,
                                         int vnodes_per_host) {
  FW_CHECK(num_hosts > 0);
  switch (policy) {
    case SchedulerPolicy::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case SchedulerPolicy::kLeastLoaded:
      return std::make_unique<LeastLoadedScheduler>();
    case SchedulerPolicy::kSnapshotLocality:
      return std::make_unique<SnapshotLocalityScheduler>(num_hosts, vnodes_per_host);
  }
  FW_CHECK_MSG(false, "unknown scheduler policy");
  return nullptr;
}

}  // namespace fwcluster
