#include "perfbench/src/probe.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/base/check.h"
#include "src/base/strings.h"

namespace fwperf {

Recorder::Recorder(fwsim::Simulation& sim) : sim_(sim), epoch_ns_(WallNanos()) {}

void Recorder::StartMeasure() {
  FW_CHECK(stack_.empty());
  measuring_ = true;
}

void Recorder::StopMeasure() {
  FW_CHECK(stack_.empty());
  measuring_ = false;
}

void Recorder::Begin(const char* name, Layer layer, uint64_t request, bool keep) {
  Frame f;
  f.layer = static_cast<int>(layer);
  if (keep) {
    Span s;
    s.name = name;
    s.sim_start_ns = sim_.Now().nanos();
    s.parent = stack_.empty() ? -1 : stack_.back().span;
    s.request = request;
    f.span = static_cast<int32_t>(spans_.size());
    spans_.push_back(s);
  }
  // Read the clock last, so span bookkeeping is outside the timed interval.
  f.start_ns = WallNanos();
  stack_.push_back(f);
}

void Recorder::End() {
  const int64_t end_ns = WallNanos();
  FW_CHECK(!stack_.empty());
  const Frame f = stack_.back();
  stack_.pop_back();
  const int64_t dur = end_ns - f.start_ns;
  if (f.span >= 0) {
    Span& s = spans_[static_cast<size_t>(f.span)];
    s.wall_start_ns = f.start_ns - epoch_ns_;
    s.wall_end_ns = end_ns - epoch_ns_;
    s.sim_end_ns = sim_.Now().nanos();
  }
  if (stack_.empty()) {
    if (measuring_) {
      root_ns_ += dur;
    }
  } else {
    stack_.back().child_ns += dur;
  }
  if (measuring_) {
    self_ns_[f.layer] += dur - f.child_ns;
    ++calls_[f.layer];
  }
}

int32_t Recorder::BeginAsync(const char* name, uint64_t request) {
  Span s;
  s.name = name;
  s.wall_start_ns = WallNanos() - epoch_ns_;
  s.sim_start_ns = sim_.Now().nanos();
  s.request = request;
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Recorder::EndAsync(int32_t handle) {
  Span& s = spans_[static_cast<size_t>(handle)];
  s.wall_end_ns = WallNanos() - epoch_ns_;
  s.sim_end_ns = sim_.Now().nanos();
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "index\tname\twall_start_ns\twall_end_ns\tsim_start_ns\tsim_end_ns\tparent"
                  "\trequest\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%s\t%" PRId64 "\t%" PRId64 "\t%" PRId64 "\t%" PRId64 "\t%d\t%" PRIu64
                    "\n",
                 i, s.name, s.wall_start_ns, s.wall_end_ns, s.sim_start_ns, s.sim_end_ns,
                 s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

std::string RequestArgs(uint64_t tag) {
  return fwbase::StrFormat("req-%010llu", static_cast<unsigned long long>(tag));
}

uint64_t ParseRequestTag(const std::string& args) {
  if (args.size() <= 4 || args.compare(0, 4, "req-") != 0) {
    return 0;
  }
  return std::strtoull(args.c_str() + 4, nullptr, 10);
}

// ---------------------------------------------------------------------------
// TimedHost
// ---------------------------------------------------------------------------

TimedHost::TimedHost(std::unique_ptr<fwcluster::ClusterHost> inner, Recorder& rec, bool joined)
    : inner_(std::move(inner)), rec_(rec), created_(rec.sim().Now()), joined_(joined) {}

fwsim::Co<fwbase::Status> TimedHost::Install(const fwlang::FunctionSource& fn) {
  const int32_t span = rec_.BeginAsync("host.install", 0);
  fwbase::Status s = co_await inner_->Install(fn);
  rec_.EndAsync(span);
  co_return s;
}

fwsim::Co<fwbase::Result<fwcore::InvocationResult>> TimedHost::Invoke(
    const std::string& fn_name, const std::string& args, fwbase::Duration deadline) {
  const uint64_t tag = ParseRequestTag(args);
  const fwbase::SimTime start = rec_.sim().Now();
  const int32_t span = rec_.BeginAsync("host.invoke", tag);
  if (!invoked_) {
    invoked_ = true;
    if (joined_ && rec_.measuring()) {
      rec_.host().join_to_first_invoke_s.Add((start - created_).seconds());
    }
  }
  fwbase::Result<fwcore::InvocationResult> r = co_await inner_->Invoke(fn_name, args, deadline);
  rec_.EndAsync(span);
  if (rec_.measuring()) {
    HostCalls& h = rec_.host();
    ++h.invoke_calls;
    h.service_ms.Add((rec_.sim().Now() - start).millis());
    if (r.ok()) {
      h.startup_ms.Add(r->startup.millis());
      h.exec_ms.Add(r->exec.millis());
      h.others_ms.Add(r->others.millis());
    } else {
      ++h.invoke_failed;
    }
  }
  co_return r;
}

fwsim::Co<fwbase::Status> TimedHost::PrepareClone(const std::string& fn_name) {
  const fwbase::SimTime start = rec_.sim().Now();
  const int32_t span = rec_.BeginAsync("host.prepare_clone", 0);
  fwbase::Status s = co_await inner_->PrepareClone(fn_name);
  rec_.EndAsync(span);
  if (rec_.measuring()) {
    HostCalls& h = rec_.host();
    ++h.prepares;
    if (s.ok()) {
      ++h.prepares_ok;
      h.prepare_ms.Add((rec_.sim().Now() - start).millis());
    }
  }
  co_return s;
}

fwbase::Status TimedHost::DiscardClone(const std::string& fn_name) {
  Scope scope(&rec_, "host.discard_clone", Layer::kHostSync);
  fwbase::Status s = inner_->DiscardClone(fn_name);
  if (s.ok() && rec_.measuring()) {
    ++rec_.host().discards;
  }
  return s;
}

size_t TimedHost::PooledClones(const std::string& fn_name) const {
  Scope scope(&rec_, "host.pooled_clones", Layer::kHostSync);
  return inner_->PooledClones(fn_name);
}

size_t TimedHost::TotalPooledClones() const {
  Scope scope(&rec_, "host.total_pooled_clones", Layer::kHostSync);
  return inner_->TotalPooledClones();
}

double TimedHost::MemoryBytes() const {
  Scope scope(&rec_, "host.memory_bytes", Layer::kHostSync);
  return inner_->MemoryBytes();
}

double TimedHost::PssBytes() const {
  Scope scope(&rec_, "host.pss_bytes", Layer::kHostSync);
  return inner_->PssBytes();
}

size_t TimedHost::LiveVmCount() {
  Scope scope(&rec_, "host.live_vm_count", Layer::kHostSync);
  return inner_->LiveVmCount();
}

size_t TimedHost::LiveNetnsCount() {
  Scope scope(&rec_, "host.live_netns_count", Layer::kHostSync);
  return inner_->LiveNetnsCount();
}

uint64_t TimedHost::warm_hits() const {
  Scope scope(&rec_, "host.warm_hits", Layer::kHostSync);
  return inner_->warm_hits();
}

void TimedHost::DropWarmPool() {
  Scope scope(&rec_, "host.drop_warm_pool", Layer::kHostSync);
  if (rec_.measuring()) {
    rec_.host().discards += inner_->TotalPooledClones();
  }
  inner_->DropWarmPool();
}

}  // namespace fwperf
