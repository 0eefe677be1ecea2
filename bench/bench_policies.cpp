// E13 (extension) — policy studies around the paper's model:
//
//   a. wavelength-assignment policies on the decoupled route-then-assign
//      baseline (first/last-fit, random, most/least-used) — the classic
//      Mokhtar–Azizoglu-style comparison ([16] in the paper);
//   b. batch processing order for §2's periodic request sets;
//   c. replication with 95% confidence intervals for the headline E7
//      comparison (cost-only vs load+cost blocking).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "rwa/approx_router.hpp"
#include "support/timer.hpp"
#include "rwa/baselines.hpp"
#include "rwa/batch.hpp"
#include "rwa/loadcost_router.hpp"
#include "sim/replicate.hpp"
#include "topology/network_builder.hpp"

namespace {

using namespace wdm;

}  // namespace

int main(int argc, char** argv) {
  wdm::bench::TelemetryScope telemetry(argc, argv);
  const bool quick = wdm::bench::quick_mode(argc, argv);
  wdm::bench::banner(
      "E13 (ext) — wavelength-assignment, batch-order, and replication",
      "a: first-fit/most-used beat random assignment on blocking; b: batch "
      "acceptance depends on processing order under contention; c: the E7 "
      "router ranking holds with confidence intervals.");

  {  // a — WA policy blocking on the physical baseline.
    wdm::support::TextTable table(
        {"WA policy", "blocking (mean)", "ci95", "replicas"});
    for (rwa::WaPolicy policy :
         {rwa::WaPolicy::kFirstFit, rwa::WaPolicy::kLastFit,
          rwa::WaPolicy::kRandom, rwa::WaPolicy::kMostUsed,
          rwa::WaPolicy::kLeastUsed}) {
      rwa::PhysicalFirstFitRouter router(policy);
      support::Rng rng(1);
      topo::NetworkOptions nopt;
      nopt.num_wavelengths = 8;
      // No conversion: wavelength continuity binds, so assignment policy
      // matters most — the classic experimental setting.
      nopt.conversion_model = topo::ConversionModel::kNone;
      const net::WdmNetwork base =
          topo::build_network(topo::nsfnet(), nopt, rng);
      sim::SimOptions opt;
      // Moderate-blocking regime: the classic policy ranking (first-fit /
      // most-used over random / least-used) is a light-to-moderate-load
      // phenomenon; saturation compresses and can invert it.
      opt.traffic.arrival_rate = 12.0;
      opt.traffic.mean_holding = 1.0;
      opt.duration = quick ? 15.0 : 60.0;
      opt.seed = 50;
      const int replicas = quick ? 3 : 10;
      const sim::ReplicationSummary s =
          sim::replicate(base, router, opt, replicas);
      table.add_row({rwa::wa_policy_name(policy),
                     wdm::support::TextTable::num(s.blocking.mean, 4),
                     wdm::support::TextTable::num(s.blocking.ci95, 4),
                     wdm::support::TextTable::integer(replicas)});
    }
    wdm::bench::print_table(table);
  }

  {  // b — batch ordering under contention.
    const int batch_size = 60;
    const int trials = quick ? 5 : 30;
    wdm::support::TextTable table(
        {"batch order", "mean accepted / " +
                            wdm::support::TextTable::integer(batch_size),
         "mean total cost", "mean final rho", "requests/s"});
    for (rwa::BatchOrder order :
         {rwa::BatchOrder::kArrival, rwa::BatchOrder::kShortestFirst,
          rwa::BatchOrder::kLongestFirst, rwa::BatchOrder::kRandom}) {
      support::RunningStats accepted, cost, rho;
      support::Stopwatch sw;
      double provision_ms = 0.0;
      for (int trial = 0; trial < trials; ++trial) {
        support::Rng rng(static_cast<std::uint64_t>(trial) * 13 + 7);
        net::WdmNetwork n = topo::nsfnet_network(4, 0.5);
        std::vector<rwa::BatchRequest> batch;
        for (int i = 0; i < batch_size; ++i) {
          rwa::BatchRequest r;
          r.s = static_cast<net::NodeId>(rng.uniform_int(0, 13));
          r.t = r.s;
          while (r.t == r.s) {
            r.t = static_cast<net::NodeId>(rng.uniform_int(0, 13));
          }
          batch.push_back(r);
        }
        rwa::ApproxDisjointRouter router;
        support::Rng order_rng(trial);
        sw.reset();
        const rwa::BatchOutcome out =
            rwa::provision_batch(n, router, batch, order, &order_rng);
        provision_ms += sw.elapsed_ms();
        accepted.add(out.accepted);
        cost.add(out.total_cost);
        rho.add(out.final_network_load);
      }
      const double rps = wdm::bench::requests_per_second(
          static_cast<long long>(trials) * batch_size, provision_ms);
      table.add_row({rwa::batch_order_name(order),
                     wdm::support::TextTable::num(accepted.mean(), 2),
                     wdm::support::TextTable::num(cost.mean(), 1),
                     wdm::support::TextTable::num(rho.mean(), 4),
                     wdm::support::TextTable::num(rps, 0)});
    }
    wdm::bench::print_table(table);
  }

  {  // c — E7 headline with confidence intervals.
    wdm::support::TextTable table(
        {"router", "blocking @40E (mean)", "ci95", "mean rho", "ci95 rho"});
    rwa::ApproxDisjointRouter cost_only;
    rwa::LoadCostRouter load_cost;
    for (const rwa::Router* r :
         {static_cast<const rwa::Router*>(&cost_only),
          static_cast<const rwa::Router*>(&load_cost)}) {
      const net::WdmNetwork base = topo::nsfnet_network(8, 0.5);
      sim::SimOptions opt;
      opt.traffic.arrival_rate = 40.0;
      opt.traffic.mean_holding = 1.0;
      opt.duration = quick ? 15.0 : 60.0;
      opt.seed = 400;
      const int replicas = quick ? 3 : 10;
      const sim::ReplicationSummary s =
          sim::replicate(base, *r, opt, replicas);
      table.add_row(
          {r->name(), wdm::support::TextTable::num(s.blocking.mean, 4),
           wdm::support::TextTable::num(s.blocking.ci95, 4),
           wdm::support::TextTable::num(s.mean_network_load.mean, 4),
           wdm::support::TextTable::num(s.mean_network_load.ci95, 4)});
    }
    wdm::bench::print_table(table);
  }
  return 0;
}
