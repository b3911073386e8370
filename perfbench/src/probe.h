// Bench-owned instrumentation: measures each layer from outside, through its
// public calls, without touching the simulator.
//
//   * Recorder keeps spans in memory (name, wall and sim start/end, parent,
//     request tag) and the per-layer wall-time totals. Synchronous spans nest
//     on a stack, so a layer's self time excludes nested calls into another
//     layer. Await-spanning calls (Invoke, PrepareClone, Install) get sim-time
//     spans only: their host work runs inside later event-loop resumes, which
//     the event loop's residual (simcore.loop_ns) accounts for.
//   * TimedHost wraps a ClusterHost and times every host call. Co<T> awaits
//     use symmetric transfer, so wrapping adds no simulation events and a
//     traced run replays the untraced run's outcome digest bit for bit.
#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/cluster/host.h"
#include "src/simcore/simulation.h"

namespace fwperf {

inline int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host-time layers timed directly; everything else the measured phase spends
// is the event loop's (coroutine resumes, including host-model work).
enum class Layer { kLoadGen, kFrontend, kHostSync, kCount };

struct Span {
  const char* name = nullptr;
  int64_t wall_start_ns = 0;  // Relative to the recorder's epoch.
  int64_t wall_end_ns = 0;
  int64_t sim_start_ns = 0;
  int64_t sim_end_ns = 0;
  int32_t parent = -1;    // Index into spans(); -1 = root.
  uint64_t request = 0;   // Request tag (1-based submit order); 0 = none.
};

// Host-layer observations gathered by every TimedHost of one run.
struct HostCalls {
  uint64_t invoke_calls = 0;
  uint64_t invoke_failed = 0;
  fwbase::SampleStats service_ms;  // Invoke start→end, sim time.
  fwbase::SampleStats startup_ms;  // Successful invocations only.
  fwbase::SampleStats exec_ms;
  fwbase::SampleStats others_ms;
  uint64_t prepares = 0;           // PrepareClone calls.
  uint64_t prepares_ok = 0;
  fwbase::SampleStats prepare_ms;  // Successful prepares, sim time.
  uint64_t discards = 0;           // Clones discarded or dropped with a pool.
  // Hosts built by the fleet's host_factory: factory call → first Invoke.
  fwbase::SampleStats join_to_first_invoke_s;
};

class Recorder {
 public:
  explicit Recorder(fwsim::Simulation& sim);

  // Layer totals and stored spans count only while measuring.
  void StartMeasure();
  void StopMeasure();
  bool measuring() const { return measuring_; }

  // Synchronous span; closes (End) before any span opened before it. `keep`
  // stores the span; otherwise only the layer totals see it.
  void Begin(const char* name, Layer layer, uint64_t request, bool keep);
  void End();

  // Await-spanning span: sim-time interval plus the wall instants of its
  // start and end events. Returns the handle EndAsync takes.
  int32_t BeginAsync(const char* name, uint64_t request);
  void EndAsync(int32_t handle);

  int64_t self_ns(Layer layer) const { return self_ns_[static_cast<int>(layer)]; }
  uint64_t calls(Layer layer) const { return calls_[static_cast<int>(layer)]; }
  // Sum of root synchronous span durations: equals the sum of the layers'
  // self times exactly when no nested time was counted twice.
  int64_t root_ns() const { return root_ns_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> TakeSpans() { return std::move(spans_); }
  HostCalls& host() { return host_; }
  fwsim::Simulation& sim() { return sim_; }

 private:
  struct Frame {
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    int layer = 0;
    int32_t span = -1;
  };

  fwsim::Simulation& sim_;
  int64_t epoch_ns_;
  bool measuring_ = false;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  int64_t self_ns_[static_cast<int>(Layer::kCount)] = {};
  uint64_t calls_[static_cast<int>(Layer::kCount)] = {};
  int64_t root_ns_ = 0;
  HostCalls host_;
};

// RAII synchronous span; a null recorder makes it a no-op.
class Scope {
 public:
  Scope(Recorder* rec, const char* name, Layer layer, uint64_t request = 0, bool keep = false)
      : rec_(rec) {
    if (rec_ != nullptr) {
      rec_->Begin(name, layer, request, keep);
    }
  }
  ~Scope() {
    if (rec_ != nullptr) {
      rec_->End();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* rec_;
};

// Writes spans as tab-separated text with one header line.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// Request tag carried in the invocation args; the bench's submit order
// (1-based), so Submit spans and host Invoke spans join on it.
std::string RequestArgs(uint64_t tag);
uint64_t ParseRequestTag(const std::string& args);

class TimedHost : public fwcluster::ClusterHost {
 public:
  // `joined` marks hosts built by the fleet's host_factory after start-up.
  TimedHost(std::unique_ptr<fwcluster::ClusterHost> inner, Recorder& rec, bool joined);

  int id() const override { return inner_->id(); }
  const char* kind() const override { return inner_->kind(); }

  fwsim::Co<fwbase::Status> Install(const fwlang::FunctionSource& fn) override;
  fwsim::Co<fwbase::Result<fwcore::InvocationResult>> Invoke(
      const std::string& fn_name, const std::string& args, fwbase::Duration deadline) override;
  fwsim::Co<fwbase::Status> PrepareClone(const std::string& fn_name) override;
  fwbase::Status DiscardClone(const std::string& fn_name) override;
  size_t PooledClones(const std::string& fn_name) const override;
  size_t TotalPooledClones() const override;
  double MemoryBytes() const override;
  double PssBytes() const override;
  size_t LiveVmCount() override;
  size_t LiveNetnsCount() override;
  uint64_t warm_hits() const override;
  void DropWarmPool() override;

  fwcluster::ClusterHost& inner() { return *inner_; }

 private:
  std::unique_ptr<fwcluster::ClusterHost> inner_;
  Recorder& rec_;
  fwbase::SimTime created_;
  bool joined_;
  bool invoked_ = false;
};

}  // namespace fwperf

#endif  // PERFBENCH_SRC_PROBE_H_
