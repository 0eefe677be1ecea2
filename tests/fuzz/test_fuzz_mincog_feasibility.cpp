// Differential check of the MinCog feasibility probe.
//
// The θ searches of §4.1 ask each G_c(ϑ) one question: does it hold two
// edge-disjoint s′→t″ paths? AuxGraphBuilder::has_disjoint_pair answers it
// with two BFS augmentations over the stable-arena universe. The weighted
// reference builds G_c(ϑ) (a fresh builder's arena, where left-out arcs
// weigh +inf) and solves it with graph::min_cost_disjoint_paths(k = 2), an
// independent successive-shortest-path algorithm: a 2-flow of finite cost
// exists exactly when two arc-disjoint paths do, so the two must agree on
// every query.
//
// (a) has_disjoint_pair against the weighted reference, with one warm
//     builder per instance. ϑ runs over every link's U/N and (U+1)/N (the
//     values where the strict and the inclusive filter differ), ϑ_min,
//     ϑ_max and random values, under both filters; queries include the
//     instance's request, random pairs and endpoints with fewer than two
//     links; the network churns (reservations, a fiber cut) between sweeps.
//     The first seven instances cycle through the seven generator families,
//     so every family is covered at any budget, with its full, none,
//     limited-range and sparse conversion tables. The probe must also leave
//     the arena's weights as the last build left them.
// (b) MinLoadRouter, LoadCostRouter and the three θ schedules against a
//     hand-composed weighted ladder: the weighted reference per probe. ϑ and
//     iterations must match exactly, and so must find_two_paths_mincog's
//     probe list, which runs the routers' own find_mincog_threshold; the
//     routes must match hop for hop. The accepted-ϑ pair is drawn from a
//     fresh build solved by SuurballeEngine, as the routers draw it,
//     because arc order decides Suurballe's ties.
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the instance count (default 500,
// used as instances = max(20, WDM_FUZZ_ITERATIONS / 4)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/generator.hpp"
#include "graph/mincostflow.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace wdm::fuzz {
namespace {

int instance_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(20, static_cast<int>(iters / 4));
}

struct Tally {
  long compared = 0;
  long mismatches = 0;
  long feasible = 0;
  std::string first_mismatch;

  void check(bool same, const std::string& what) {
    ++compared;
    if (same) return;
    if (mismatches++ == 0) first_mismatch = what;
  }
};

void expect_clean(const Tally& tally) {
  EXPECT_GT(tally.compared, 0);
  EXPECT_EQ(tally.mismatches, 0)
      << tally.mismatches << " of " << tally.compared
      << " comparisons differ; first: " << tally.first_mismatch;
}

rwa::AuxGraphOptions gc(double theta, bool inclusive = false) {
  rwa::AuxGraphOptions opt;
  opt.weighting = rwa::AuxWeighting::kLoadExponential;
  opt.theta = theta;
  opt.include_at_threshold = inclusive;
  return opt;
}

/// The weighted reference: G_c(ϑ) and a min-cost 2-flow over its finite arcs.
bool weighted_feasible(const net::WdmNetwork& net, net::NodeId s,
                       net::NodeId t, double theta, bool inclusive = false) {
  const rwa::AuxGraph aux = rwa::build_aux_graph(net, s, t, gc(theta, inclusive));
  return graph::min_cost_disjoint_paths(aux.g, aux.w, aux.s_prime,
                                        aux.t_second, 2)
      .has_value();
}

/// A node with fewer than two usable out-links (or in-links), if any.
net::NodeId thin_node(const net::WdmNetwork& net, bool out) {
  const auto& g = net.graph();
  for (net::NodeId v = 0; v < net.num_nodes(); ++v) {
    int usable = 0;
    for (graph::EdgeId e : out ? g.out_edges(v) : g.in_edges(v)) {
      usable += net.available(e).empty() ? 0 : 1;
    }
    if (usable < 2) return v;
  }
  return graph::kInvalidNode;
}

std::vector<std::pair<net::NodeId, net::NodeId>> queries(
    const FuzzInstance& inst, support::Rng& rng) {
  const net::WdmNetwork& net = inst.network;
  const auto n = static_cast<std::size_t>(net.num_nodes());
  std::vector<std::pair<net::NodeId, net::NodeId>> out = {{inst.s, inst.t}};
  for (int i = 0; i < 3; ++i) {
    const auto s = static_cast<net::NodeId>(rng.index(n));
    const auto t = static_cast<net::NodeId>(rng.index(n));
    if (s != t) out.emplace_back(s, t);
  }
  const net::NodeId thin_s = thin_node(net, /*out=*/true);
  if (thin_s != graph::kInvalidNode) {
    out.emplace_back(thin_s, thin_s == inst.t ? inst.s : inst.t);
  }
  const net::NodeId thin_t = thin_node(net, /*out=*/false);
  if (thin_t != graph::kInvalidNode) {
    out.emplace_back(thin_t == inst.s ? inst.t : inst.s, thin_t);
  }
  return out;
}

std::vector<double> thetas(const net::WdmNetwork& net, support::Rng& rng) {
  std::set<double> out = {0.0, net.theta_min(), net.theta_max(), 1.0, 2.0};
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    out.insert(net.link_load(e));
    out.insert(static_cast<double>(net.usage(e) + 1) /
               static_cast<double>(net.capacity(e)));
  }
  for (int i = 0; i < 4; ++i) out.insert(rng.uniform(0.0, 1.1));
  return {out.begin(), out.end()};
}

/// One sweep of part (a) over every query and ϑ with a warm builder.
void sweep(const net::WdmNetwork& net, const FuzzInstance& inst,
           support::Rng& rng, rwa::AuxGraphBuilder& builder,
           const std::string& ctx, Tally* tally) {
  const std::vector<double> ths = thetas(net, rng);
  const auto qs = queries(inst, rng);
  for (std::size_t q = 0; q < qs.size(); ++q) {
    const auto [s, t] = qs[q];
    // Each query first lays down a weighted build the probes must leave
    // untouched: G_rc on even queries, G' on odd ones.
    rwa::AuxGraphOptions before;
    if (q % 2 == 0) {
      before.weighting = rwa::AuxWeighting::kCostLoadFiltered;
      before.theta = net.theta_max();
    }
    const rwa::AuxGraph& aux = builder.build(net, s, t, before);
    const std::vector<double> w_before = aux.w;

    for (double theta : ths) {
      for (bool inclusive : {false, true}) {
        const bool got = builder.has_disjoint_pair(net, s, t, gc(theta, inclusive));
        const bool want = weighted_feasible(net, s, t, theta, inclusive);
        tally->feasible += want ? 1 : 0;
        std::ostringstream what;
        what << ctx << " (" << s << "->" << t << ") theta " << theta
             << (inclusive ? " inclusive" : " strict") << ": probe " << got
             << " vs min-cost flow " << want;
        tally->check(got == want, what.str());
      }
    }
    tally->check(aux.w == w_before,
                 ctx + ": a probe wrote into the stable arena");
  }
}

/// Reserves a few random wavelengths and cuts (or repairs) one fiber.
void churn(net::WdmNetwork& net, support::Rng& rng) {
  const auto m = static_cast<std::size_t>(net.num_links());
  for (int i = 0; i < 4; ++i) {
    const auto e = static_cast<graph::EdgeId>(rng.index(m));
    const net::WavelengthSet avail = net.available(e);
    if (!avail.empty()) net.reserve(e, avail.lowest());
  }
  const auto cut = static_cast<graph::EdgeId>(rng.index(m));
  net.set_link_failed(cut, !net.link_failed(cut));
}

TEST(MinCogFeasibility, ProbeAgreesWithWeightedSuurballe) {
  Tally tally;
  std::map<std::string, int> families;
  GenOptions loaded;
  loaded.preload_probability = 0.35;
  loaded.failure_probability = 0.3;
  constexpr TopoFamily kFamilies[] = {
      TopoFamily::kRandomDigraph, TopoFamily::kRandomConnected,
      TopoFamily::kRing,          TopoFamily::kGrid,
      TopoFamily::kBackbone,      TopoFamily::kTrap,
      TopoFamily::kBridge};
  for (int i = 0; i < instance_budget(); ++i) {
    const std::uint64_t seed = 0x3c0f0000ull + static_cast<std::uint64_t>(i);
    GenOptions gen = i % 2 == 0 ? GenOptions{} : loaded;
    if (i < static_cast<int>(std::size(kFamilies))) {
      gen.family = kFamilies[i];  // every family at any budget
    }
    FuzzInstance inst = generate_instance(seed, gen);
    ++families[inst.family];
    support::Rng rng(seed ^ 0xfea5ull);
    rwa::AuxGraphBuilder builder;
    const std::string ctx = "seed " + std::to_string(seed) + " " + inst.family;
    sweep(inst.network, inst, rng, builder, ctx, &tally);
    churn(inst.network, rng);
    sweep(inst.network, inst, rng, builder, ctx + " churned", &tally);
  }
  std::cout << tally.compared << " probes compared, " << tally.feasible
            << " feasible\n";
  expect_clean(tally);
  // Both answers must be common for the comparison to mean anything.
  EXPECT_GT(tally.feasible, tally.compared / 20);
  EXPECT_LT(tally.feasible, tally.compared - tally.compared / 20);
  for (const char* family : {"random-digraph", "random-connected", "ring",
                             "grid", "backbone", "trap", "bridge"}) {
    EXPECT_GT(families[family], 0) << "family " << family << " never drawn";
  }
}

// --- Part (b): the searches and both routers against a weighted ladder ---

struct Ladder {
  bool found = false;
  double theta = 0.0;
  int iterations = 0;
  std::vector<double> probes;

  bool probe(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
             double th) {
    ++iterations;
    probes.push_back(th);
    if (!weighted_feasible(net, s, t, th)) return false;
    found = true;
    theta = th;
    return true;
  }
};

/// §4.1's doubling increments Δ/2^j, clamped at ϑ_max.
Ladder doubling_ladder(const net::WdmNetwork& net, net::NodeId s,
                       net::NodeId t) {
  Ladder l;
  const double lo = net.theta_min();
  const double hi = net.theta_max();
  const double delta = hi - lo;
  int j = delta > 0.0
              ? std::max(0, static_cast<int>(std::ceil(-std::log2(delta))))
              : 0;
  for (double th = lo;; --j) {
    if (l.probe(net, s, t, th)) return l;
    if (th >= hi || delta <= 0.0) return l;
    th = std::min(th + delta / std::pow(2.0, j), hi);
  }
}

Ladder linear_ladder(const net::WdmNetwork& net, net::NodeId s,
                     net::NodeId t) {
  std::set<double> grid = {net.theta_min(), net.theta_max()};
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    grid.insert(std::nextafter(net.link_load(e),
                               std::numeric_limits<double>::infinity()));
  }
  Ladder l;
  for (double th : grid) {
    if (l.probe(net, s, t, th)) return l;
  }
  return l;
}

Ladder bisection_ladder(const net::WdmNetwork& net, net::NodeId s,
                        net::NodeId t, double tolerance) {
  Ladder l;
  double lo = net.theta_min();
  double hi = net.theta_max();
  if (l.probe(net, s, t, lo)) return l;
  if (!l.probe(net, s, t, hi)) return l;
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    ++l.iterations;
    l.probes.push_back(mid);
    if (weighted_feasible(net, s, t, mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  l.theta = hi;
  return l;
}

std::string describe(const Ladder& l) {
  std::ostringstream os;
  os << (l.found ? "found" : "dropped") << " theta " << l.theta << " after "
     << l.iterations << " probes";
  return os.str();
}

/// The route a router must return for ϑ: the accepted-ϑ graph from a fresh
/// build, its SuurballeEngine pair (as the routers solve it), and the
/// optimal semilightpath in each path's induced subgraph, cheaper one first.
net::ProtectedRoute reference_route(const net::WdmNetwork& net, net::NodeId s,
                                    net::NodeId t, double theta,
                                    bool load_cost) {
  rwa::AuxGraphOptions opt;
  opt.weighting = load_cost ? rwa::AuxWeighting::kCostLoadFiltered
                            : rwa::AuxWeighting::kLoadExponential;
  opt.theta = theta;
  const rwa::AuxGraph aux = rwa::build_aux_graph(net, s, t, opt);
  graph::SuurballeEngine engine;
  const graph::DisjointPair pair =
      engine.solve(aux.g, aux.w, aux.s_prime, aux.t_second);
  net::ProtectedRoute route;
  if (!pair.found) return route;
  net::Semilightpath p1 = rwa::optimal_semilightpath(
      net, s, t, aux.induced_link_mask(pair.first, net.num_links()));
  net::Semilightpath p2 = rwa::optimal_semilightpath(
      net, s, t, aux.induced_link_mask(pair.second, net.num_links()));
  if (!p1.found || !p2.found) return route;
  if (p2.cost(net) < p1.cost(net)) std::swap(p1, p2);
  route.found = true;
  route.primary = std::move(p1);
  route.backup = std::move(p2);
  return route;
}

void compare_router(const rwa::Router& router, bool load_cost,
                    const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                    const Ladder& ladder, const std::string& ctx,
                    Tally* tally) {
  const rwa::RouteResult got = router.route(net, s, t);
  std::ostringstream what;
  what << ctx << " " << router.name() << " (" << s << "->" << t << "): ";
  tally->check(got.theta_iterations == ladder.iterations &&
                   (!ladder.found || got.theta == ladder.theta),
               what.str() + "router theta " + std::to_string(got.theta) +
                   " after " + std::to_string(got.theta_iterations) +
                   " probes vs ladder " + describe(ladder));
  const net::ProtectedRoute want =
      ladder.found ? reference_route(net, s, t, ladder.theta, load_cost)
                   : net::ProtectedRoute{};
  tally->check(got.found == want.found &&
                   (!want.found || (got.route.primary.hops == want.primary.hops &&
                                    got.route.backup.hops == want.backup.hops)),
               what.str() + "route differs from the ladder's");
}

void reserve_route(net::WdmNetwork& net, const net::ProtectedRoute& r) {
  for (const net::Semilightpath* p : {&r.primary, &r.backup}) {
    for (const net::Hop& h : p->hops) net.reserve(h.edge, h.lambda);
  }
}

TEST(MinCogFeasibility, SearchesAndRoutersMatchWeightedLadder) {
  Tally tally;
  long accepted = 0;
  long dropped = 0;
  GenOptions gen;
  gen.max_wavelengths = 6;
  gen.preload_probability = 0.25;
  for (int i = 0; i < instance_budget(); ++i) {
    const std::uint64_t seed = 0x3c0f8000ull + static_cast<std::uint64_t>(i);
    FuzzInstance inst = generate_instance(seed, gen);
    net::WdmNetwork& net = inst.network;
    support::Rng rng(seed ^ 0x1add3ull);
    const rwa::MinLoadRouter minload;
    const rwa::LoadCostRouter loadcost;
    const auto n = static_cast<std::size_t>(net.num_nodes());
    // A request stream on one network: both long-lived routers see the
    // residual state churn as the minimum-load routes get provisioned.
    for (int r = 0; r < 8; ++r) {
      net::NodeId s = inst.s;
      net::NodeId t = inst.t;
      if (r > 0) {
        s = static_cast<net::NodeId>(rng.index(n));
        t = static_cast<net::NodeId>(rng.index(n));
        if (s == t) continue;
      }
      const std::string ctx =
          "seed " + std::to_string(seed) + " request " + std::to_string(r);
      const Ladder doubling = doubling_ladder(net, s, t);
      (doubling.found ? accepted : dropped) += 1;
      compare_router(minload, /*load_cost=*/false, net, s, t, doubling, ctx,
                     &tally);
      compare_router(loadcost, /*load_cost=*/true, net, s, t, doubling, ctx,
                     &tally);

      rwa::MinCogOptions opt;
      const Ladder ladders[] = {
          doubling, linear_ladder(net, s, t),
          bisection_ladder(net, s, t, opt.bisection_tolerance)};
      const rwa::ThetaSearch searches[] = {rwa::ThetaSearch::kDoubling,
                                           rwa::ThetaSearch::kLinearScan,
                                           rwa::ThetaSearch::kBisection};
      for (int k = 0; k < 3; ++k) {
        opt.search = searches[k];
        const rwa::MinCogResult mc = rwa::find_two_paths_mincog(net, s, t, opt);
        const Ladder& want = ladders[k];
        tally.check(mc.found == want.found && mc.iterations == want.iterations &&
                        mc.probes == want.probes &&
                        (!want.found || (mc.theta == want.theta &&
                                         mc.aux_pair.found)),
                    ctx + " search " + std::to_string(k) + ": theta " +
                        std::to_string(mc.theta) + " after " +
                        std::to_string(mc.iterations) + " probes vs ladder " +
                        describe(want));
      }
      const rwa::RouteResult provisioned = minload.route(net, s, t);
      if (provisioned.found) reserve_route(net, provisioned.route);
    }
  }
  std::cout << tally.compared << " comparisons; " << accepted
            << " requests accepted, " << dropped << " dropped\n";
  expect_clean(tally);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(dropped, 0);
}

}  // namespace
}  // namespace wdm::fuzz
