#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rwa/approx_router.hpp"
#include "rwa/baselines.hpp"
#include "rwa/exact_router.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "rwa/node_disjoint_router.hpp"
#include "rwa/route_scratch.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "topology/network_builder.hpp"

namespace wdm::rwa {
namespace {

net::WdmNetwork square_net(int W = 2, double conv = 0.5) {
  net::WdmNetwork n(4, W);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(W, conv));
  }
  n.add_link(0, 1, net::WavelengthSet::all(W), 1.0);
  n.add_link(1, 3, net::WavelengthSet::all(W), 1.0);
  n.add_link(0, 2, net::WavelengthSet::all(W), 1.0);
  n.add_link(2, 3, net::WavelengthSet::all(W), 1.0);
  return n;
}

TEST(ApproxRouter, FindsDisjointPairOnSquare) {
  const net::WdmNetwork n = square_net();
  const RouteResult r = ApproxDisjointRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
  EXPECT_TRUE(net::edge_disjoint(r.route.primary, r.route.backup));
  EXPECT_DOUBLE_EQ(r.total_cost(n), 4.0);
}

TEST(ApproxRouter, BlocksWhenNoPairExists) {
  net::WdmNetwork n(3, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(2), 1.0);
  EXPECT_FALSE(ApproxDisjointRouter().route(n, 0, 2).found);
}

TEST(ApproxRouter, UsesResidualAvailability) {
  net::WdmNetwork n = square_net(2);
  // Exhaust one side: pair impossible.
  n.reserve(0, 0);
  n.reserve(0, 1);
  EXPECT_FALSE(ApproxDisjointRouter().route(n, 0, 3).found);
}

TEST(ApproxRouter, PrimaryIsCheaperPath) {
  net::WdmNetwork n(4, 2);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, 0.0));
  }
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 3, net::WavelengthSet::all(2), 1.0);
  n.add_link(0, 2, net::WavelengthSet::all(2), 5.0);
  n.add_link(2, 3, net::WavelengthSet::all(2), 5.0);
  const RouteResult r = ApproxDisjointRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_LE(r.route.primary.cost(n), r.route.backup.cost(n));
  EXPECT_DOUBLE_EQ(r.route.primary.cost(n), 2.0);
}

TEST(ApproxRouter, AuxCostUpperBoundsDeliveredCost) {
  // Lemma 2: C(P'_1) + C(P'_2) <= ω(P_1) + ω(P_2).
  net::WdmNetwork n = test::random_network(8, 8, 3, 7);
  const RouteResult r = ApproxDisjointRouter().route(n, 0, 7);
  if (r.found) {
    EXPECT_LE(r.total_cost(n), r.aux_cost + 1e-9);
  }
}

TEST(MinCog, UnloadedNetworkAcceptsThetaMin) {
  const net::WdmNetwork n = square_net();
  const MinCogResult mc = find_two_paths_mincog(n, 0, 3);
  ASSERT_TRUE(mc.found);
  EXPECT_DOUBLE_EQ(mc.theta, n.theta_min());
  EXPECT_EQ(mc.iterations, 1);
}

TEST(MinCog, RaisesThetaUnderLoad) {
  net::WdmNetwork n = square_net(4);
  // Load the upper route heavily: link 0 gets 3/4 used.
  n.reserve(0, 0);
  n.reserve(0, 1);
  n.reserve(0, 2);
  const MinCogResult mc = find_two_paths_mincog(n, 0, 3);
  ASSERT_TRUE(mc.found);
  // A pair must use link 0 (load .75), so ϑ must exceed .75.
  EXPECT_GT(mc.theta, 0.75);
  EXPECT_GT(mc.iterations, 1);
}

TEST(MinCog, DropsWhenNoPairAtThetaMax) {
  net::WdmNetwork n(3, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(2), 1.0);
  const MinCogResult mc = find_two_paths_mincog(n, 0, 2);
  EXPECT_FALSE(mc.found);
}

TEST(MinCog, ExactThresholdOracleAgreesOnFeasibility) {
  net::WdmNetwork n = square_net(4);
  n.reserve(0, 0);
  double exact = 0.0;
  ASSERT_TRUE(exact_min_threshold(n, 0, 3, &exact));
  const MinCogResult mc = find_two_paths_mincog(n, 0, 3);
  ASSERT_TRUE(mc.found);
  // Strict filter: feasible ϑ are exactly those > L*, so the accepted ϑ
  // strictly dominates the exact minimum bottleneck load.
  EXPECT_GT(mc.theta, exact);
}

TEST(MinCog, ExactOracleIsBottleneckLoad) {
  net::WdmNetwork n = square_net(4);
  // Load both disjoint routes differently: upper 2/4, lower 1/4.
  n.reserve(0, 0);
  n.reserve(0, 1);
  n.reserve(2, 0);
  double exact = 0.0;
  ASSERT_TRUE(exact_min_threshold(n, 0, 3, &exact));
  // Any pair must use links 0 (load .5) and 2 (load .25): L* = 0.5.
  EXPECT_DOUBLE_EQ(exact, 0.5);
}

class MinCogRatioTest : public ::testing::TestWithParam<int> {};

TEST_P(MinCogRatioTest, Theorem3RatioBelow3) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::WdmNetwork n = test::random_network(8, 10, 4, seed * 71 + 11);
  support::Rng rng(seed + 1000);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.4)) n.reserve(e, l);
    });
  }
  const net::NodeId s = 0, t = 7;
  double exact = 0.0;
  const bool exact_ok = exact_min_threshold(n, s, t, &exact);
  const MinCogResult mc = find_two_paths_mincog(n, s, t);
  ASSERT_EQ(mc.found, exact_ok);
  if (mc.found) {
    // Soundness: the accepted ϑ strictly exceeds the exact bottleneck L*.
    EXPECT_GT(mc.theta, exact);
    if (mc.iterations > 1) {
      ASSERT_FALSE(std::isnan(mc.last_infeasible_theta));
      // An infeasible probe never exceeds the exact bottleneck.
      EXPECT_LE(mc.last_infeasible_theta, exact + 1e-12);
      // Theorem 3's telescoping argument: from the second increment on, the
      // accepted ϑ overshoots the last infeasible probe (itself a lower
      // bound on every feasible ϑ) by < 3x. The very first increment can be
      // coarser — the paper's proof assumes ϑ* clears the penultimate probe.
      if (mc.iterations > 2) {
        EXPECT_LT(mc.theta / mc.last_infeasible_theta, 3.0 + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLoadedNetworks, MinCogRatioTest,
                         ::testing::Range(0, 20));

TEST(MinLoadRouter, DeliversFeasibleDisjointPair) {
  net::WdmNetwork n = square_net(4);
  n.reserve(0, 0);
  const RouteResult r = MinLoadRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
  EXPECT_GT(r.theta_iterations, 0);
}

TEST(LoadCostRouter, DeliversFeasibleDisjointPair) {
  net::WdmNetwork n = square_net(4);
  n.reserve(2, 0);
  const RouteResult r = LoadCostRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
}

TEST(LoadCostRouter, AvoidsLoadedLinksWhenAlternativesExist) {
  // 5-node network: two short routes and one long detour. Load one short
  // route; the load-aware router must route around it, the cost-only router
  // will still use it.
  net::WdmNetwork n(5, 4);
  for (net::NodeId v = 0; v < 5; ++v) {
    n.set_conversion(v, net::ConversionTable::full(4, 0.0));
  }
  const auto all = net::WavelengthSet::all(4);
  n.add_link(0, 1, all, 1.0);   // e0 upper
  n.add_link(1, 4, all, 1.0);   // e1 upper
  n.add_link(0, 2, all, 1.0);   // e2 middle
  n.add_link(2, 4, all, 1.0);   // e3 middle
  n.add_link(0, 3, all, 10.0);  // e4 detour
  n.add_link(3, 4, all, 10.0);  // e5 detour
  // Load the upper route to 3/4.
  for (net::Wavelength l = 0; l < 3; ++l) {
    n.reserve(0, l);
    n.reserve(1, l);
  }
  const RouteResult cost_only = ApproxDisjointRouter().route(n, 0, 4);
  ASSERT_TRUE(cost_only.found);
  // Cost-only: cheapest pair uses the loaded upper route (cost 4 total).
  EXPECT_DOUBLE_EQ(cost_only.total_cost(n), 4.0);

  const RouteResult load_aware = LoadCostRouter().route(n, 0, 4);
  ASSERT_TRUE(load_aware.found);
  // Load-aware: ϑ search settles below 3/4, excluding the hot links.
  EXPECT_LE(load_aware.theta, 0.75);
  for (const net::Hop& h : load_aware.route.primary.hops) {
    EXPECT_NE(h.edge, 0);
    EXPECT_NE(h.edge, 1);
  }
  for (const net::Hop& h : load_aware.route.backup.hops) {
    EXPECT_NE(h.edge, 0);
    EXPECT_NE(h.edge, 1);
  }
}

TEST(UnprotectedRouter, SinglePathNoBackup) {
  const net::WdmNetwork n = square_net();
  const RouteResult r = UnprotectedRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.primary.fits_residual(n));
  EXPECT_FALSE(r.route.backup.found);
}

TEST(FirstFitAssign, KeepsWavelengthContinuity) {
  net::WdmNetwork n(3, 3);
  n.set_conversion(1, net::ConversionTable::full(3, 0.5));
  n.add_link(0, 1, net::WavelengthSet::all(3), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(3), 1.0);
  const net::Semilightpath p = first_fit_assign(n, {0, 1});
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops[0].lambda, 0);
  EXPECT_EQ(p.hops[1].lambda, 0);  // continuity preferred
  EXPECT_EQ(p.conversions(n), 0);
}

TEST(FirstFitAssign, ConvertsWhenForced) {
  net::WdmNetwork n(3, 2);
  n.set_conversion(1, net::ConversionTable::full(2, 0.5));
  net::WavelengthSet only0, only1;
  only0.insert(0);
  only1.insert(1);
  n.add_link(0, 1, only0, 1.0);
  n.add_link(1, 2, only1, 1.0);  // continuity impossible: conversion forced
  const net::Semilightpath p = first_fit_assign(n, {0, 1});
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops[0].lambda, 0);
  EXPECT_EQ(p.hops[1].lambda, 1);
  EXPECT_EQ(p.conversions(n), 1);
}

TEST(FirstFitAssign, BlocksWithoutConversion) {
  net::WdmNetwork n(3, 2);  // no conversion at node 1
  net::WavelengthSet only0, only1;
  only0.insert(0);
  only1.insert(1);
  n.add_link(0, 1, only0, 1.0);
  n.add_link(1, 2, only1, 1.0);  // empty intersection, no converter: blocked
  const net::Semilightpath p = first_fit_assign(n, {0, 1});
  EXPECT_FALSE(p.found);
}

TEST(PhysicalFirstFitRouter, WorksOnCleanNetwork) {
  const net::WdmNetwork n = square_net();
  const RouteResult r = PhysicalFirstFitRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
}

TEST(TwoStepRouter, WorksOnSquare) {
  const net::WdmNetwork n = square_net();
  const RouteResult r = TwoStepRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
}

TEST(TwoStepRouter, FailsOnTrapWhereApproxSucceeds) {
  // WDM version of the Suurballe trap.
  net::WdmNetwork n(4, 2);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, 0.0));
  }
  const auto all = net::WavelengthSet::all(2);
  n.add_link(0, 1, all, 1.0);
  n.add_link(1, 2, all, 0.1);
  n.add_link(2, 3, all, 1.0);
  n.add_link(1, 3, all, 3.0);
  n.add_link(0, 2, all, 3.0);
  EXPECT_FALSE(TwoStepRouter().route(n, 0, 3).found);
  const RouteResult r = ApproxDisjointRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.total_cost(n), 8.0);
}

TEST(RouterNames, AreDistinct) {
  EXPECT_NE(ApproxDisjointRouter().name(), MinLoadRouter().name());
  EXPECT_NE(MinLoadRouter().name(), LoadCostRouter().name());
  EXPECT_NE(UnprotectedRouter().name(), TwoStepRouter().name());
}

/// Equal doubles, or both NaN (θ and aux_cost default to NaN).
bool same_value(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

// sim::replicate shares one const Router& across parallel_for replicas, each
// routing its own copy of the network. The routers' uid-keyed scratch pools
// must keep that invisible: every thread gets exactly the serial answers.
TEST(RouterSharing, ConcurrentRouteMatchesSerial) {
  constexpr int kThreads = 4;
  const net::WdmNetwork base = topo::nsfnet_network(4, 0.5);
  support::Rng rng(2024);
  std::vector<std::pair<net::NodeId, net::NodeId>> queries;
  while (queries.size() < 40) {
    const auto n = static_cast<std::size_t>(base.num_nodes());
    const auto s = static_cast<net::NodeId>(rng.index(n));
    const auto t = static_cast<net::NodeId>(rng.index(n));
    if (s != t) queries.emplace_back(s, t);
  }
  // Routes the queries in order on `net`, reserving every accepted pair, so
  // later queries see the load of earlier ones and some are blocked.
  auto run = [&](const Router& router, net::WdmNetwork net) {
    std::vector<RouteResult> out;
    for (const auto& [s, t] : queries) {
      RouteResult r = router.route(net, s, t);
      if (r.found && r.route.feasible(net)) r.route.reserve_in(net);
      out.push_back(std::move(r));
    }
    return out;
  };

  const ApproxDisjointRouter approx;
  const NodeDisjointRouter node_disjoint;
  const LoadCostRouter load_cost;
  const MinLoadRouter min_load;
  for (const Router* router : std::initializer_list<const Router*>{
           &approx, &node_disjoint, &load_cost, &min_load}) {
    const std::vector<RouteResult> want = run(*router, base);
    int found = 0;
    for (const RouteResult& r : want) found += r.found ? 1 : 0;
    EXPECT_GT(found, 0) << router->name();
    EXPECT_LT(found, static_cast<int>(queries.size())) << router->name();

    std::vector<std::vector<RouteResult>> got(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] { got[i] = run(*router, base); });
    }
    for (std::thread& th : threads) th.join();

    for (int i = 0; i < kThreads; ++i) {
      ASSERT_EQ(got[i].size(), want.size());
      for (std::size_t q = 0; q < want.size(); ++q) {
        const RouteResult& a = got[i][q];
        const RouteResult& b = want[q];
        const std::string ctx = router->name() + " thread " +
                                std::to_string(i) + " query " +
                                std::to_string(q);
        EXPECT_EQ(a.found, b.found) << ctx;
        EXPECT_EQ(a.route.primary.hops, b.route.primary.hops) << ctx;
        EXPECT_EQ(a.route.backup.hops, b.route.backup.hops) << ctx;
        EXPECT_EQ(a.theta_iterations, b.theta_iterations) << ctx;
        EXPECT_TRUE(same_value(a.theta, b.theta)) << ctx;
        EXPECT_TRUE(same_value(a.aux_cost, b.aux_cost)) << ctx;
      }
    }
  }
}

TEST(RouteScratchPool, SingleThreadedCallerGetsWarmScratchBack) {
  const net::WdmNetwork net = square_net();
  RouteScratchPool pool;
  EXPECT_EQ(pool.idle_count(), 0u);
  RouteScratch* first = nullptr;
  {
    auto lease = pool.lease(net);
    first = lease.get();
    EXPECT_EQ(pool.idle_count(), 0u);
  }
  EXPECT_EQ(pool.idle_count(), 1u);
  {
    auto lease = pool.lease(net);
    EXPECT_EQ(lease.get(), first) << "LIFO pool must recycle the warm scratch";
    auto second = pool.lease(net);
    EXPECT_NE(second.get(), first);
  }
  EXPECT_EQ(pool.idle_count(), 2u);
}

TEST(RouteScratchPool, KeyedLeasePrefersScratchBoundToTheNetwork) {
  const net::WdmNetwork a = square_net();
  const net::WdmNetwork b = square_net();  // equal state, distinct uid
  const net::WdmNetwork c = square_net();
  RouteScratchPool pool;
  RouteScratch* for_a = nullptr;
  RouteScratch* unbound = nullptr;
  {
    auto la = pool.lease(a);
    auto lu = pool.lease(b);  // stays unbound: nothing is built with it
    for_a = la.get();
    unbound = lu.get();
    la->builder.build(a, 0, 3);
    EXPECT_EQ(la->bound_uid(), a.uid());
    EXPECT_EQ(lu->bound_uid(), 0u);
    // Leases end in reverse order: the unbound scratch is parked first, so
    // the one bound to `a` sits on top of the LIFO stack.
  }
  ASSERT_EQ(pool.idle_count(), 2u);
  {
    // A new network takes the never-bound scratch, not the top of the
    // stack, so the one warm for `a` keeps its caches.
    auto lc = pool.lease(c);
    EXPECT_EQ(lc.get(), unbound);
    lc->builder.build(c, 0, 3);
  }
  {
    // Exact uid match wins wherever it sits in the stack.
    auto la = pool.lease(a);
    EXPECT_EQ(la.get(), for_a);
    // No scratch is bound to `b` and none is unbound: plain LIFO.
    auto lb = pool.lease(b);
    EXPECT_EQ(lb.get(), unbound);
    EXPECT_EQ(lb->bound_uid(), c.uid());
    lb->builder.build(b, 0, 3);
    EXPECT_EQ(lb->bound_uid(), b.uid());
  }
  EXPECT_EQ(pool.idle_count(), 2u);
}

}  // namespace
}  // namespace wdm::rwa
