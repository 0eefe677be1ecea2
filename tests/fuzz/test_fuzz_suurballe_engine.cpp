// Differential proof obligation for graph::SuurballeEngine: under
// randomized residual-state churn over the stable-arena auxiliary graph, a
// long-lived engine (one pooled RouteScratch's lifetime, its retained
// scratch reused across sources, sinks and graph shapes) must produce a
// DisjointPair bit-for-bit identical — edge ids, per-path costs, total
// cost — to a fresh engine solving the same graph. Leftover scratch state
// would silently change routing decisions.
//
// A second check cross-validates found/total_cost against
// graph::min_cost_disjoint_paths (successive shortest paths, an independent
// algorithm) on the same universe graph. It settles cost ties its own way,
// so equal-cost path *sets* may differ; total cost is compared with a tight
// relative tolerance instead of bitwise.
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the instance count (default 500,
// used as instances = max(15, WDM_FUZZ_ITERATIONS / 8)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "graph/mincostflow.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace wdm::fuzz {
namespace {

using graph::DisjointPair;
using rwa::AuxGraph;
using rwa::AuxGraphBuilder;
using rwa::AuxGraphOptions;
using rwa::AuxWeighting;

void expect_bitwise_equal(const DisjointPair& fresh, const DisjointPair& reused,
                          const std::string& context) {
  ASSERT_EQ(fresh.found, reused.found) << context;
  if (!fresh.found) return;
  ASSERT_EQ(fresh.first.edges, reused.first.edges) << context;
  ASSERT_EQ(fresh.second.edges, reused.second.edges) << context;
  // Bitwise: same edges traversed in the same order sum identically.
  ASSERT_EQ(fresh.first.cost, reused.first.cost) << context;
  ASSERT_EQ(fresh.second.cost, reused.second.cost) << context;
}

/// One random residual-state mutation (reserve / release / fail-toggle).
void churn_step(net::WdmNetwork& net, support::Rng& rng) {
  const graph::EdgeId e = static_cast<graph::EdgeId>(
      rng.index(static_cast<std::size_t>(net.num_links())));
  const double dice = rng.uniform();
  if (dice < 0.1) {
    net.set_link_failed(e, !net.link_failed(e));
    return;
  }
  if (dice < 0.55) {
    const std::vector<net::Wavelength> avail = net.available(e).to_vector();
    if (!avail.empty()) net.reserve(e, avail[rng.index(avail.size())]);
    return;
  }
  std::vector<net::Wavelength> used;
  net.installed(e).for_each([&](net::Wavelength l) {
    if (net.is_used(e, l)) used.push_back(l);
  });
  if (!used.empty()) net.release(e, used[rng.index(used.size())]);
}

int instance_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(15, static_cast<int>(iters / 8));
}

struct Arm {
  const char* label;
  AuxWeighting weighting;
  bool protect_nodes;
};

constexpr Arm kArms[] = {
    {"G'", AuxWeighting::kCost, false},
    {"G_rc", AuxWeighting::kCostLoadFiltered, false},
    {"G'+protect", AuxWeighting::kCost, true},
};

TEST(SuurballeEngineDifferential, ReusedEqualsFreshBitForBitUnderChurn) {
  const int instances = instance_budget();
  // One engine for the whole run: it sees every arm's graph shape in turn,
  // so its scratch is resized as well as reused.
  graph::SuurballeEngine reused;
  for (int i = 0; i < instances; ++i) {
    const std::uint64_t seed = 0x5bbe0000ull + static_cast<std::uint64_t>(i);
    FuzzInstance inst = generate_instance(seed);
    support::Rng rng(seed ^ 0x77a3ull);

    for (std::size_t a = 0; a < std::size(kArms); ++a) {
      // One builder survives the churn sequence, as in a pooled
      // RouteScratch.
      AuxGraphBuilder builder;
      const int steps = 10;
      for (int step = 0; step < steps; ++step) {
        for (int k = 0; k < 2; ++k) churn_step(inst.network, rng);
        // Rotate the source over a few values, as recurring sources do.
        const net::NodeId s = static_cast<net::NodeId>(
            rng.index(std::min<std::size_t>(
                4, static_cast<std::size_t>(inst.network.num_nodes()))));
        net::NodeId t = inst.t;
        if (t == s) t = (t + 1) % inst.network.num_nodes();

        AuxGraphOptions opt;
        opt.weighting = kArms[a].weighting;
        opt.protect_nodes = kArms[a].protect_nodes;
        if (opt.weighting != AuxWeighting::kCost) {
          opt.theta = 0.25 + 0.75 * rng.uniform();
        }
        const AuxGraph& aux = builder.build(inst.network, s, t, opt);

        const std::string context =
            std::string("seed ") + std::to_string(seed) + " family " +
            inst.family + " step " + std::to_string(step) + " arm " +
            kArms[a].label;

        // Reference: fresh engine, no history, same graph.
        graph::SuurballeEngine fresh_engine;
        const DisjointPair fresh =
            fresh_engine.solve(aux.g, aux.w, aux.s_prime, aux.t_second);
        const DisjointPair pair =
            reused.solve(aux.g, aux.w, aux.s_prime, aux.t_second);
        expect_bitwise_equal(fresh, pair, context);
        if (HasFatalFailure()) return;

        // Cross-check against min-cost flow: path sets may legitimately
        // differ under cost ties, but feasibility and optimal total cost
        // may not.
        const auto mcf = graph::min_cost_disjoint_paths(
            aux.g, aux.w, aux.s_prime, aux.t_second, 2);
        ASSERT_EQ(mcf.has_value(), pair.found) << context;
        if (mcf) {
          const double c = (*mcf)[0].cost + (*mcf)[1].cost;
          const double esum = pair.total_cost();
          ASSERT_NEAR(esum, c, 1e-9 * std::max(1.0, std::abs(c))) << context;
        }
      }
    }
  }
}

}  // namespace
}  // namespace wdm::fuzz
