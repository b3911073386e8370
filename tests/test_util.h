// Shared helpers for driving coroutines to completion inside tests, the
// per-test simulation fixture, and the ModelHost calibration the cluster-level
// suites share.
#ifndef FIREWORKS_TESTS_TEST_UTIL_H_
#define FIREWORKS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/base/units.h"
#include "src/cluster/host.h"
#include "src/simcore/run_sync.h"
#include "src/simcore/simulation.h"

namespace fwtest {

using fwsim::RunSync;
using fwsim::RunSyncVoid;

// FNV-1a over the test's full "Suite.Name": stable across runs, platforms,
// and gtest orderings/filters.
inline uint64_t PerTestSeed() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "fwtest";
  if (info != nullptr) {
    name = std::string(info->test_suite_name()) + "." + info->name();
  }
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Fixture giving every test its own Simulation seeded from the test's full
// name. Tests that share one hard-coded seed all draw the same RNG stream, so
// a suite can silently depend on cross-test coincidences (and a new test
// "randomly" colliding with an old one's draws). Hashing the test name keeps
// each test deterministic run-to-run while decorrelating it from every other
// test, regardless of execution order or --gtest_filter.
class SimTest : public ::testing::Test {
 protected:
  SimTest() : sim_(PerTestSeed()) {}

  fwsim::Simulation sim_;
};

// A hand-written ModelHost calibration shaped like a Fireworks Node.js host:
// ~21 ms cold path, ~5 ms warm (parked-clone) path, 16 ms clone preparation,
// and CoW-shared marginal PSS. Cluster tests use it instead of running
// CalibratePlatform, which would tie them to full-fidelity timings.
inline fwcluster::HostCalibration TestCalibration() {
  fwcluster::HostCalibration cal;
  cal.cold_startup = fwbase::Duration::Millis(17);
  cal.cold_exec = fwbase::Duration::Millis(3);
  cal.cold_others = fwbase::Duration::Millis(1);
  cal.warm_startup = fwbase::Duration::Micros(1600);
  cal.warm_exec = fwbase::Duration::Millis(3);
  cal.warm_others = fwbase::Duration::Micros(400);
  cal.prepare_cost = fwbase::Duration::Millis(16);
  cal.instance_pss_bytes = 50e6;
  cal.pooled_clone_pss_bytes = 6e6;
  return cal;
}

}  // namespace fwtest

#endif  // FIREWORKS_TESTS_TEST_UTIL_H_
