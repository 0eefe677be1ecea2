// Differential check of the Liang–Shen path DP against the layered graph.
//
// optimal_semilightpath answers a simple-path mask with the O(k·W²) Viterbi
// DP and anything else with the wavelength-layered Dijkstra. Both must obey
// one tie rule (layered_graph.hpp), so on every mask the fuzz generator can
// produce they must agree on found, on the exact cost, and hop for hop. The
// reference here is the layered solver composed by hand — build,
// shortest_path, to_semilightpath — so no switch inside the library decides
// which solver a comparison exercises.
//
// Masks come from three sources: the masks the routers hand to the
// refinement (projections of Suurballe pairs in G', G_c and G_rc, with and
// without the node-protection gadget, plus the unmasked and
// primary-complement queries of the simulator's restoration paths); random
// simple paths, which always take the DP; and chains with small dyadic
// costs. The generator's continuous random costs almost never tie exactly,
// so only the dyadic arm (like NSFNET's unit links and 0.5 converters)
// exercises the tie rule in earnest.
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the instance count (default 500,
// used as instances = max(20, WDM_FUZZ_ITERATIONS / 2)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace wdm::fuzz {
namespace {

namespace tel = support::telemetry;

int instance_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(20, static_cast<int>(iters / 2));
}

struct Tally {
  long compared = 0;
  long mismatches = 0;
  std::string first_mismatch;
};

std::string describe(const net::Semilightpath& p, const net::WdmNetwork& net) {
  std::ostringstream os;
  if (!p.found) return "not found";
  os << "cost " << p.cost(net) << " hops";
  for (const net::Hop& h : p.hops) os << " (" << h.edge << "," << h.lambda << ")";
  return os.str();
}

/// One comparison: the library entry point against the hand-composed
/// layered solver.
void compare(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
             std::span<const std::uint8_t> mask, const std::string& context,
             Tally* tally) {
  const net::Semilightpath got = rwa::optimal_semilightpath(net, s, t, mask);
  const rwa::LayeredGraph lg = rwa::LayeredGraph::build(net, s, t, mask);
  const net::Semilightpath want = lg.to_semilightpath(lg.shortest_path());
  ++tally->compared;
  const bool same = got.found == want.found &&
                    (!got.found || (got.hops == want.hops &&
                                    got.cost(net) == want.cost(net)));
  if (same) return;
  if (tally->mismatches++ == 0) {
    tally->first_mismatch = context + ": optimal_semilightpath " +
                            describe(got, net) + " vs layered " +
                            describe(want, net);
  }
}

/// Masks of the routers' §3.3.2 refinement and of the simulator's
/// restoration paths for the instance's own request.
void router_masks(const FuzzInstance& inst, const std::string& ctx,
                  Tally* tally) {
  const net::WdmNetwork& net = inst.network;
  const auto m = static_cast<std::size_t>(net.num_links());
  struct Arm {
    const char* label;
    rwa::AuxWeighting weighting;
    bool protect_nodes;
  };
  constexpr Arm kArms[] = {
      {"G'", rwa::AuxWeighting::kCost, false},
      {"G'+protect", rwa::AuxWeighting::kCost, true},
      {"G_c", rwa::AuxWeighting::kLoadExponential, false},
      {"G_rc", rwa::AuxWeighting::kCostLoadFiltered, false},
  };
  for (const Arm& arm : kArms) {
    rwa::AuxGraphOptions opt;
    opt.weighting = arm.weighting;
    opt.protect_nodes = arm.protect_nodes;
    opt.include_at_threshold = true;
    const rwa::AuxGraph aux = rwa::build_aux_graph(net, inst.s, inst.t, opt);
    const graph::DisjointPair pair =
        graph::suurballe(aux.g, aux.w, aux.s_prime, aux.t_second);
    if (!pair.found) continue;
    for (const graph::Path* p : {&pair.first, &pair.second}) {
      compare(net, inst.s, inst.t,
              aux.induced_link_mask(*p, net.num_links()),
              ctx + " " + arm.label, tally);
    }
  }
  compare(net, inst.s, inst.t, {}, ctx + " unmasked", tally);
  const net::Semilightpath primary =
      rwa::optimal_semilightpath(net, inst.s, inst.t);
  if (primary.found) {
    std::vector<std::uint8_t> rest(m, 1);
    for (const net::Hop& h : primary.hops) {
      rest[static_cast<std::size_t>(h.edge)] = 0;
    }
    compare(net, inst.s, inst.t, rest, ctx + " primary-complement", tally);
  }
}

/// Random simple paths: a self-avoiding random walk from a random node;
/// its links are the mask and its endpoints the query.
void random_paths(const FuzzInstance& inst, support::Rng& rng, int count,
                  const std::string& ctx, Tally* tally) {
  const net::WdmNetwork& net = inst.network;
  const auto& g = net.graph();
  const auto n = static_cast<std::size_t>(net.num_nodes());
  for (int r = 0; r < count; ++r) {
    const auto s = static_cast<net::NodeId>(rng.index(n));
    std::vector<std::uint8_t> visited(n, 0);
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(net.num_links()),
                                   0);
    visited[static_cast<std::size_t>(s)] = 1;
    net::NodeId u = s;
    const int max_len = 1 + static_cast<int>(rng.index(n));
    for (int len = 0; len < max_len; ++len) {
      std::vector<graph::EdgeId> next;
      for (graph::EdgeId e : g.out_edges(u)) {
        if (!visited[static_cast<std::size_t>(g.head(e))]) next.push_back(e);
      }
      if (next.empty()) break;
      const graph::EdgeId e = next[rng.index(next.size())];
      mask[static_cast<std::size_t>(e)] = 1;
      u = g.head(e);
      visited[static_cast<std::size_t>(u)] = 1;
    }
    if (u == s) continue;
    compare(net, s, u, mask, ctx + " path#" + std::to_string(r), tally);
  }
}

void expect_clean(const Tally& tally) {
  EXPECT_GT(tally.compared, 0);
  EXPECT_EQ(tally.mismatches, 0)
      << tally.mismatches << " of " << tally.compared
      << " comparisons differ; first: " << tally.first_mismatch;
}

std::uint64_t counter(const char* name) {
  const auto values = tel::counter_values();
  const auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

/// Runs `body` with telemetry on and returns how often each solver ran.
template <typename F>
std::pair<std::uint64_t, std::uint64_t> count_solvers(F&& body) {
  tel::reset();
  tel::set_enabled(true);
  body();
  tel::set_enabled(false);
  const std::uint64_t dp = counter("rwa.liang_shen.path_dp");
  const std::uint64_t layered = counter("rwa.liang_shen.layered");
  std::cout << "optimal_semilightpath calls: path DP " << dp << ", layered "
            << layered << "\n";
  return {dp, layered};
}

TEST(LiangShenDpDifferential, RouterMasksAgreeWithLayered) {
  Tally tally;
  const auto [dp, layered] = count_solvers([&] {
    for (int i = 0; i < instance_budget(); ++i) {
      const std::uint64_t seed = 0x15d9a000ull + static_cast<std::uint64_t>(i);
      const FuzzInstance inst = generate_instance(seed);
      router_masks(inst, "seed " + std::to_string(seed), &tally);
    }
  });
  expect_clean(tally);
  if (tel::compiled_in()) {
    // Both solvers must have been exercised for the comparison to mean
    // anything.
    EXPECT_GT(dp, 0u);
    EXPECT_GT(layered, 0u);
  }
}

TEST(LiangShenDpDifferential, RandomSimplePathsAgreeWithLayered) {
  Tally tally;
  const auto [dp, layered] = count_solvers([&] {
    for (int i = 0; i < instance_budget(); ++i) {
      const std::uint64_t seed = 0x15d9b000ull + static_cast<std::uint64_t>(i);
      const FuzzInstance inst = generate_instance(seed);
      support::Rng rng(seed ^ 0xd9ull);
      random_paths(inst, rng, 8, "seed " + std::to_string(seed), &tally);
    }
  });
  expect_clean(tally);
  if (tel::compiled_in()) {
    EXPECT_EQ(dp, static_cast<std::uint64_t>(tally.compared));
    EXPECT_EQ(layered, 0u);
  }
}

TEST(LiangShenDpDifferential, WideWavelengthUniverseAgreesWithLayered) {
  // W up to 64 fills a whole WavelengthSet word: the DP's bit loops and the
  // layered graph must still agree at every width.
  GenOptions gen;
  gen.min_wavelengths = 16;
  gen.max_wavelengths = 64;
  gen.preload_probability = 0.3;
  Tally tally;
  const auto [dp, layered] = count_solvers([&] {
    for (int i = 0; i < std::max(10, instance_budget() / 10); ++i) {
      const std::uint64_t seed = 0x15d9c000ull + static_cast<std::uint64_t>(i);
      const FuzzInstance inst = generate_instance(seed, gen);
      support::Rng rng(seed ^ 0xd9ull);
      router_masks(inst, "seed " + std::to_string(seed), &tally);
      random_paths(inst, rng, 4, "seed " + std::to_string(seed), &tally);
    }
  });
  expect_clean(tally);
  if (tel::compiled_in()) {
    EXPECT_GT(dp, 0u);
    EXPECT_GT(layered, 0u);
  }
}

/// A chain 0 -> 1 -> ... -> k with costs in {0, 0.5, 1, 2, 3} (exact in
/// binary, so different routes reach exactly equal labels) plus a few
/// random extra links the chain mask leaves out.
net::WdmNetwork dyadic_chain(support::Rng& rng, int k, int W) {
  net::WdmNetwork n(k + 1, W);
  const double conv_costs[] = {0.0, 0.5, 1.0};
  for (net::NodeId v = 0; v <= k; ++v) {
    const double c = conv_costs[rng.index(3)];
    switch (rng.uniform_int(0, 3)) {
      case 0:
        n.set_conversion(v, net::ConversionTable::full(W, c));
        break;
      case 1:
        n.set_conversion(v, net::ConversionTable::none(W));
        break;
      case 2:
        n.set_conversion(
            v, net::ConversionTable::limited_range(
                   W, static_cast<int>(rng.uniform_int(1, std::max(1, W / 2))),
                   c));
        break;
      default: {
        net::ConversionTable t = net::ConversionTable::none(W);
        for (net::Wavelength a = 0; a < W; ++a) {
          for (net::Wavelength b = 0; b < W; ++b) {
            if (a != b && rng.bernoulli(0.3)) t.set(a, b, conv_costs[rng.index(3)]);
          }
        }
        n.set_conversion(v, t);
      }
    }
  }
  auto link = [&](net::NodeId u, net::NodeId v) {
    net::WavelengthSet inst;
    for (net::Wavelength l = 0; l < W; ++l) {
      if (rng.bernoulli(0.7)) inst.insert(l);
    }
    if (inst.empty()) inst.insert(static_cast<net::Wavelength>(rng.index(
        static_cast<std::size_t>(W))));
    graph::EdgeId e = graph::kInvalidEdge;
    if (rng.bernoulli(0.5)) {
      e = n.add_link(u, v, inst, 1.0 + static_cast<double>(rng.index(3)));
    } else {
      std::vector<double> costs(static_cast<std::size_t>(W));
      for (double& c : costs) c = 1.0 + static_cast<double>(rng.index(2));
      e = n.add_link(u, v, inst, costs);
    }
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.2)) n.reserve(e, l);
    });
  };
  for (net::NodeId v = 0; v < k; ++v) link(v, v + 1);
  for (int x = 0; x < k; ++x) {
    const auto u = static_cast<net::NodeId>(rng.index(static_cast<std::size_t>(k + 1)));
    const auto v = static_cast<net::NodeId>(rng.index(static_cast<std::size_t>(k + 1)));
    if (u != v) link(u, v);
  }
  return n;
}

TEST(LiangShenDpDifferential, DyadicChainsExerciseTheTieRule) {
  constexpr int kWidths[] = {2, 3, 4, 8, 16, 32, 64};
  Tally chains;
  Tally unmasked;
  const auto [dp, layered] = count_solvers([&] {
    for (int i = 0; i < instance_budget(); ++i) {
      const std::uint64_t seed = 0x15d9d000ull + static_cast<std::uint64_t>(i);
      support::Rng rng(seed);
      const int k = static_cast<int>(rng.uniform_int(1, 8));
      const int W = kWidths[rng.index(std::size(kWidths))];
      const net::WdmNetwork n = dyadic_chain(rng, k, W);
      std::vector<std::uint8_t> chain(static_cast<std::size_t>(n.num_links()),
                                      0);
      std::fill_n(chain.begin(), k, 1);
      const std::string ctx = "seed " + std::to_string(seed);
      compare(n, 0, k, chain, ctx + " chain", &chains);
      compare(n, 0, k, {}, ctx + " unmasked", &unmasked);
    }
  });
  expect_clean(chains);
  expect_clean(unmasked);
  if (tel::compiled_in()) {
    EXPECT_GE(dp, static_cast<std::uint64_t>(chains.compared));
  }
}

}  // namespace
}  // namespace wdm::fuzz
