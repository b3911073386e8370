// Dense function ids for the cluster's per-app state.
//
// Cluster interns every function name it sees (InstallAll in install order,
// then any other name a Submit carries) into an AppId, 0, 1, 2, ... Per-app
// state on the request and control-loop paths (arrival counts, rate EWMAs,
// in-flight preparations, retry budgets, SLO windows, the distribution
// tier's snapshot bits) lives in vectors indexed by the id, so the front end
// hashes a name once per request instead of comparing strings in ordered
// maps.
#ifndef FIREWORKS_SRC_CLUSTER_APP_ID_H_
#define FIREWORKS_SRC_CLUSTER_APP_ID_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

namespace fwcluster {

using AppId = uint32_t;

// The name <-> AppId table. Names live in a deque, so a reference returned
// by Name() stays valid while later names are interned: a coroutine may hold
// one across a suspension.
class AppTable {
 public:
  // The AppId of `name`, assigning the next one on first sight. One hash
  // lookup.
  AppId Intern(const std::string& name) {
    const auto [it, inserted] = ids_.try_emplace(name, static_cast<AppId>(names_.size()));
    if (inserted) {
      names_.push_back(name);
    }
    return it->second;
  }
  const std::string& Name(AppId app) const { return names_[app]; }
  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, AppId> ids_;  // Looked up, never iterated.
  // Indexed by AppId: one entry per distinct function name, the name table
  // rather than a dispatch queue.
  std::deque<std::string> names_;  // fwlint:allow(unbounded-queue)
};

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_APP_ID_H_
