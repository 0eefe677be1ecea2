// Smoke test of the end-to-end benchmark: runs every workload tiny, then
// checks the one metrics record it yields — every end-to-end metric printed
// once by name, with its unit and a sane value, and a per-layer table for
// every workload. Build and run it as CMakeLists.txt shows.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <string>

#include "e2e.hpp"

namespace {

using bench_e2e::Metric;
using bench_e2e::Report;

/// name -> unit of every "end_to_end" metric in BENCHMARK.json.
std::map<std::string, std::string> end_to_end_spec() {
  std::ifstream in(BENCH_E2E_SPEC);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  const std::size_t begin = text.find("\"end_to_end\"");
  const std::size_t end = text.find(']', begin);
  std::map<std::string, std::string> spec;
  if (begin == std::string::npos || end == std::string::npos) return spec;
  const std::regex entry(R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  for (std::sregex_iterator it(text.begin() + static_cast<std::ptrdiff_t>(begin),
                               text.begin() + static_cast<std::ptrdiff_t>(end),
                               entry);
       it != std::sregex_iterator(); ++it) {
    spec.emplace((*it)[1].str(), (*it)[2].str());
  }
  return spec;
}

Report run_tiny(const bench_e2e::Workload& w, bool trace) {
  bench_e2e::RunOptions opt;
  opt.seed = 1;
  opt.seconds = 0.01;
  opt.trace = trace;
  opt.scale = 0.02;
  return bench_e2e::run(w, opt);
}

std::map<std::string, Metric> by_name(const Report& r) {
  std::map<std::string, Metric> out;
  for (const Metric& m : r.metrics) {
    EXPECT_TRUE(out.emplace(m.name, m).second) << "duplicate metric " << m.name;
  }
  return out;
}

std::string failures_of(const Report& r) {
  std::string s;
  for (const std::string& f : r.failures) s += f + "; ";
  return s;
}

TEST(ApiSmoke, EveryWorkloadPrintsEveryEndToEndMetric) {
  const std::map<std::string, std::string> end_to_end = end_to_end_spec();
  ASSERT_FALSE(end_to_end.empty()) << "no end_to_end metrics in " << BENCH_E2E_SPEC;
  for (const bench_e2e::Workload& w : bench_e2e::workloads()) {
    SCOPED_TRACE(w.name);
    Report r;
    ASSERT_NO_THROW(r = run_tiny(w, /*trace=*/false));
    EXPECT_TRUE(r.correct()) << failures_of(r);
    EXPECT_GT(r.attempted, 0);
    EXPECT_GT(r.det_offered, r.det_blocked);

    const auto metrics = by_name(r);
    EXPECT_EQ(metrics.size(), end_to_end.size());
    for (const auto& [name, unit] : end_to_end) {
      const auto it = metrics.find(name);
      ASSERT_NE(it, metrics.end()) << "missing " << name;
      EXPECT_EQ(it->second.unit, unit) << name;
      EXPECT_TRUE(std::isfinite(it->second.value)) << name;
      EXPECT_GT(it->second.value, 0.0) << name;
    }
    EXPECT_LE(metrics.at("availability").value, 1.0);
    EXPECT_LE(metrics.at("route_p50_us").value, metrics.at("route_p99_us").value);
    EXPECT_GT(metrics.at("route_p50_us").samples, 0);

    const std::string json = bench_e2e::result_json(r);
    EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": ", 0), 0u) << json;
    for (const auto& [name, unit] : end_to_end) {
      EXPECT_NE(json.find("\"" + name + "\": {\"value\": "), std::string::npos);
    }
  }
}

TEST(ApiSmoke, TracedRunYieldsPerLayerTableThatReconciles) {
  for (const bench_e2e::Workload& w : bench_e2e::workloads()) {
    SCOPED_TRACE(w.name);
    Report r;
    ASSERT_NO_THROW(r = run_tiny(w, /*trace=*/true));
    EXPECT_TRUE(r.correct()) << failures_of(r);

    const auto metrics = by_name(r);
    for (const char* name :
         {"sim.self_share", "rwa.router.busy_s", "rwa.router.unattributed_s",
          "rwa.aux_graph.share", "graph.suurballe.share",
          "rwa.layered_graph.share", "rwa.mincog.share",
          "support.telemetry.dropped_spans"}) {
      ASSERT_TRUE(metrics.count(name)) << "missing " << name;
    }
    EXPECT_EQ(metrics.at("support.telemetry.dropped_spans").value, 0.0);
    EXPECT_GT(metrics.at("rwa.aux_graph.builds").value, 0.0);
    // The layer shares and the unattributed remainder cover route time.
    const double shares = metrics.at("rwa.aux_graph.share").value +
                          metrics.at("graph.suurballe.share").value +
                          metrics.at("rwa.layered_graph.share").value +
                          metrics.at("rwa.mincog.share").value;
    EXPECT_GT(shares, 0.5);
    EXPECT_LE(shares, 1.0);
    EXPECT_GE(metrics.at("rwa.router.unattributed_s").value, 0.0);
  }
}

}  // namespace
