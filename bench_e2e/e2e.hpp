// End-to-end benchmark of the simulator's request path (E24).
//
// Drives sim::Simulator on a fixed workload and measures it from outside:
//   * a rwa::Router decorator (TimedRouter in e2e.cpp) times every
//     Router::route call with steady_clock and verifies every found route;
//   * Simulator::run is timed as a whole, so the simulator's self time is the
//     run's wall time minus the summed route time;
//   * a traced round switches on the library's own telemetry and reads its
//     existing per-stage splits to break route time into layers.
//
// Every workload is a closed loop with one caller: the simulator routes each
// arrival synchronously and the next event waits for it. Sim time is
// decoupled from wall time; everything runs on the calling thread.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bench_e2e {

enum class RouterArm { kApprox, kLoadCost, kMinLoad };

struct Workload {
  std::string name;
  std::string topology;      // "nsfnet" | "waxman500" | "geo10x10"
  int wavelengths = 32;
  RouterArm router = RouterArm::kApprox;
  double erlang = 100.0;     // arrival rate; mean holding time is 1
  double zipf_alpha = 0.0;   // > 0: Zipf-ranked sources, uniform destinations
  std::uint64_t ranking_seed = 1;  // seeds the Zipf node ranking
  double failure_rate = 0.0; // duplex fiber cuts per unit time per link
  double mean_repair = 1.0;
  bool reprovision_backup = false;
  /// Expected offered requests in one round's timed window.
  long window_requests = 1000;
  /// Requests sampled for the exact-router quality probe (traced run only).
  int exact_samples = 0;
};

const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(std::string_view name);

struct RunOptions {
  std::uint64_t seed = 1;
  /// Wall-clock measuring budget: rounds repeat until it is spent (and at
  /// least one round of each counted traffic slot has run).
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks the window and the ramp (smoke test: 0.02).
  double scale = 1.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long samples = 0;  // sample count behind a percentile / mean (0 = n/a)
};

struct Report {
  std::string workload;
  long attempted = 0;  // route calls in timed windows
  long failed = 0;     // throws + verification violations + check failures
  std::vector<std::string> failures;  // first few failure messages
  std::vector<Metric> metrics;        // end-to-end (trace off) or per-layer
  /// Seed-deterministic counts over the first round of each counted traffic
  /// slot (slots 0-2 untraced, slot 0 traced); identical for every run of one
  /// seed and mode, and a traced round must match its untraced twin.
  long det_offered = 0;
  long det_blocked = 0;
  double det_cost_sum = 0.0;
  bool correct() const { return failed == 0; }
};

Report run(const Workload& w, const RunOptions& opt);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Report& r);

/// The deterministic counts as one JSON object (compared across runs).
std::string deterministic_json(const Report& r);

/// Human-readable metric table with units and sample counts.
std::string metric_table(const Report& r);

}  // namespace bench_e2e
