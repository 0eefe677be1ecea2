// Differential checks for the reusable AuxGraphBuilder under randomized
// reserve/release/fiber-cut churn, for G', G_c, G_rc and G'+protect:
//
//  * warm == fresh: a long-lived builder must produce a graph arc-for-arc
//    identical — structure, node ids, arc order AND bit-exact weights — to
//    a fresh builder's (build_aux_graph) for the same query. If it holds,
//    the caching fast path is observationally invisible.
//  * universe == compact: the stable arena's finite arcs must map
//    one-to-one onto the arcs of fuzz::build_compact_aux_graph, a plain
//    cache-free construction, with bit-identical weights and
//    phys_edge_of_arc; every other arena arc is +inf, and the edge-node,
//    link-arc and transit-arc counters agree. This is what lets the routers
//    treat the arena as the paper's G' / G_c / G_rc.
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the instance count (default 500,
// used as instances = max(20, WDM_FUZZ_ITERATIONS / 5)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/compact_aux.hpp"
#include "fuzz/generator.hpp"
#include "rwa/aux_graph.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace wdm::fuzz {
namespace {

using rwa::AuxGraph;
using rwa::AuxGraphBuilder;
using rwa::AuxGraphOptions;
using rwa::AuxWeighting;

/// Exact structural + weight equality. EXPECT_EQ on doubles is deliberate:
/// the builder promises *bit-identical* weights, not approximately equal
/// ones, because routers compare path costs built from them.
void expect_identical(const AuxGraph& cold, const AuxGraph& warm,
                      const std::string& context) {
  ASSERT_EQ(cold.g.num_nodes(), warm.g.num_nodes()) << context;
  ASSERT_EQ(cold.g.num_edges(), warm.g.num_edges()) << context;
  EXPECT_EQ(cold.s_prime, warm.s_prime) << context;
  EXPECT_EQ(cold.t_second, warm.t_second) << context;
  EXPECT_EQ(cold.num_edge_nodes, warm.num_edge_nodes) << context;
  EXPECT_EQ(cold.num_link_arcs, warm.num_link_arcs) << context;
  EXPECT_EQ(cold.num_transit_arcs, warm.num_transit_arcs) << context;
  ASSERT_EQ(cold.w.size(), warm.w.size()) << context;
  ASSERT_EQ(cold.phys_edge_of_arc.size(), warm.phys_edge_of_arc.size())
      << context;
  ASSERT_EQ(cold.phys_edge_of_node.size(), warm.phys_edge_of_node.size())
      << context;
  ASSERT_EQ(cold.is_in_node.size(), warm.is_in_node.size()) << context;
  for (graph::EdgeId a = 0; a < cold.g.num_edges(); ++a) {
    const auto i = static_cast<std::size_t>(a);
    ASSERT_EQ(cold.g.tail(a), warm.g.tail(a)) << context << " arc " << a;
    ASSERT_EQ(cold.g.head(a), warm.g.head(a)) << context << " arc " << a;
    ASSERT_EQ(cold.w[i], warm.w[i]) << context << " arc " << a
                                    << " (weights must be bit-identical)";
    ASSERT_EQ(cold.phys_edge_of_arc[i], warm.phys_edge_of_arc[i])
        << context << " arc " << a;
  }
  for (graph::NodeId v = 0; v < cold.g.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    ASSERT_EQ(cold.phys_edge_of_node[i], warm.phys_edge_of_node[i])
        << context << " node " << v;
    ASSERT_EQ(cold.is_in_node[i], warm.is_in_node[i]) << context << " node "
                                                      << v;
  }
}

/// Universe == compact: translates every compact node to the arena's
/// computed id (u_out^e = 2e, v_in^e = 2e + 1, s' = 2m, t'' = 2m + 1,
/// hub_in(x) = 2m + 2 + 2x, hub_out(x) one above), then requires the arena's
/// finite arcs and the compact arcs to match one-to-one on endpoints,
/// bit-exact weight and phys_edge_of_arc.
void expect_universe_matches_compact(const net::WdmNetwork& net,
                                     const AuxGraph& uni,
                                     const AuxGraph& compact,
                                     const std::string& context) {
  EXPECT_EQ(uni.num_edge_nodes, compact.num_edge_nodes) << context;
  EXPECT_EQ(uni.num_link_arcs, compact.num_link_arcs) << context;
  EXPECT_EQ(uni.num_transit_arcs, compact.num_transit_arcs) << context;
  const graph::NodeId m2 = 2 * net.num_links();
  std::vector<graph::NodeId> to_uni(
      static_cast<std::size_t>(compact.g.num_nodes()), graph::kInvalidNode);
  for (graph::NodeId v = 0; v < compact.g.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    const graph::EdgeId e = compact.phys_edge_of_node[i];
    if (e != graph::kInvalidEdge) {
      to_uni[i] = 2 * e + compact.is_in_node[i];
    } else if (v == compact.s_prime) {
      to_uni[i] = m2;
    } else if (v == compact.t_second) {
      to_uni[i] = m2 + 1;
    }
  }
  // Gadget nodes: hub_in(x) is entered from v_in^e of links e into x, and
  // hub_out(x) only from hub_in(x).
  auto gadget = [&](graph::NodeId v) {
    return to_uni[static_cast<std::size_t>(v)] == graph::kInvalidNode;
  };
  for (graph::EdgeId a = 0; a < compact.g.num_edges(); ++a) {
    const graph::NodeId u = compact.g.tail(a);
    const graph::NodeId v = compact.g.head(a);
    if (gadget(v) && !gadget(u)) {
      const graph::EdgeId e =
          compact.phys_edge_of_node[static_cast<std::size_t>(u)];
      to_uni[static_cast<std::size_t>(v)] = m2 + 2 + 2 * net.graph().head(e);
    }
  }
  for (graph::EdgeId a = 0; a < compact.g.num_edges(); ++a) {
    const graph::NodeId u = compact.g.tail(a);
    const graph::NodeId v = compact.g.head(a);
    if (compact.is_in_node[static_cast<std::size_t>(u)] &&
        compact.phys_edge_of_node[static_cast<std::size_t>(u)] ==
            graph::kInvalidEdge &&
        u != compact.t_second) {
      to_uni[static_cast<std::size_t>(v)] =
          to_uni[static_cast<std::size_t>(u)] + 1;
    }
  }

  std::map<std::pair<graph::NodeId, graph::NodeId>, graph::EdgeId> finite;
  for (graph::EdgeId a = 0; a < uni.g.num_edges(); ++a) {
    if (uni.w[static_cast<std::size_t>(a)] == graph::kInf) continue;
    const bool fresh_key =
        finite.emplace(std::make_pair(uni.g.tail(a), uni.g.head(a)), a).second;
    ASSERT_TRUE(fresh_key) << context << " parallel finite arcs at " << a;
  }
  for (graph::EdgeId a = 0; a < compact.g.num_edges(); ++a) {
    const auto i = static_cast<std::size_t>(a);
    const graph::NodeId u = to_uni[static_cast<std::size_t>(compact.g.tail(a))];
    const graph::NodeId v = to_uni[static_cast<std::size_t>(compact.g.head(a))];
    ASSERT_NE(u, graph::kInvalidNode) << context << " compact arc " << a;
    ASSERT_NE(v, graph::kInvalidNode) << context << " compact arc " << a;
    const auto it = finite.find({u, v});
    ASSERT_NE(it, finite.end())
        << context << " compact arc " << a << " (" << u << "->" << v
        << ") has no finite arena arc";
    const auto j = static_cast<std::size_t>(it->second);
    ASSERT_EQ(compact.w[i], uni.w[j])
        << context << " compact arc " << a
        << " (weights must be bit-identical)";
    ASSERT_EQ(compact.phys_edge_of_arc[i], uni.phys_edge_of_arc[j])
        << context << " compact arc " << a;
    finite.erase(it);
  }
  ASSERT_TRUE(finite.empty())
      << context << " " << finite.size()
      << " finite arena arcs missing from the compact graph, first "
      << finite.begin()->second;
}

/// One random residual-state mutation: reserve an available wavelength,
/// release a used one, or toggle a link's failure state.
void churn_step(net::WdmNetwork& net, support::Rng& rng) {
  const graph::EdgeId e =
      static_cast<graph::EdgeId>(rng.index(static_cast<std::size_t>(
          net.num_links())));
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
  return std::max<int>(20, static_cast<int>(iters / 5));
}

struct Arm {
  const char* label;
  AuxWeighting weighting;
  bool protect_nodes;
};

constexpr Arm kArms[] = {
    {"G'", AuxWeighting::kCost, false},
    {"G_c", AuxWeighting::kLoadExponential, false},
    {"G_rc", AuxWeighting::kCostLoadFiltered, false},
    {"G'+protect", AuxWeighting::kCost, true},
};

/// The churn driver both differential tests share: per instance, 8 steps
/// of 3 churn mutations and a varying (s, t), then every arm with a
/// mid-range ϑ; `check(net, s, t, opt, arm, context)` runs per arm.
template <typename Check>
void churn_sweep(std::uint64_t seed_base, Check&& check) {
  const int instances = instance_budget();
  for (int i = 0; i < instances; ++i) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    FuzzInstance inst = generate_instance(seed);
    support::Rng rng(seed ^ 0x5eedull);
    const int steps = 8;
    for (int step = 0; step < steps; ++step) {
      for (int k = 0; k < 3; ++k) churn_step(inst.network, rng);
      // Vary the query too: the arena must cope with changing (s, t).
      const net::NodeId s =
          step % 2 == 0 ? inst.s
                        : static_cast<net::NodeId>(rng.index(
                              static_cast<std::size_t>(
                                  inst.network.num_nodes())));
      net::NodeId t = inst.t;
      if (t == s) t = (t + 1) % inst.network.num_nodes();

      for (std::size_t a = 0; a < std::size(kArms); ++a) {
        AuxGraphOptions opt;
        opt.weighting = kArms[a].weighting;
        opt.protect_nodes = kArms[a].protect_nodes;
        if (opt.weighting != AuxWeighting::kCost) {
          // A mid-range ϑ so the filter actually drops some links.
          opt.theta = 0.25 + 0.75 * rng.uniform();
        }
        check(inst.network, s, t, opt, a,
              std::string("seed ") + std::to_string(seed) + " family " +
                  inst.family + " step " + std::to_string(step) + " arm " +
                  kArms[a].label);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(AuxBuilderDifferential, WarmEqualsColdUnderChurn) {
  // One long-lived builder per arm survives the whole churn sequence of an
  // instance; the reference is a fresh builder at every step.
  std::vector<AuxGraphBuilder> builders;
  std::uint64_t instance = ~std::uint64_t{0};
  churn_sweep(0xab11de50ull, [&](const net::WdmNetwork& net, net::NodeId s,
                                 net::NodeId t, const AuxGraphOptions& opt,
                                 std::size_t arm, const std::string& context) {
    if (net.uid() != instance) {
      instance = net.uid();
      builders = std::vector<AuxGraphBuilder>(std::size(kArms));
    }
    const AuxGraph fresh = rwa::build_aux_graph(net, s, t, opt);
    const AuxGraph& warm = builders[arm].build(net, s, t, opt);
    expect_identical(fresh, warm, context);
  });
}

TEST(AuxBuilderDifferential, UniverseEqualsCompactUnderChurn) {
  AuxGraphBuilder builder;  // warm across instances, arms and rebinds
  churn_sweep(0xc0a7ac70ull, [&](const net::WdmNetwork& net, net::NodeId s,
                                 net::NodeId t, const AuxGraphOptions& opt,
                                 std::size_t, const std::string& context) {
    const AuxGraph& uni = builder.build(net, s, t, opt);
    const AuxGraph compact = build_compact_aux_graph(net, s, t, opt);
    expect_universe_matches_compact(net, uni, compact, context);
  });
}

TEST(AuxBuilderDifferential, CacheActuallyHitsOnUnchangedNetwork) {
  FuzzInstance inst = generate_instance(7);
  AuxGraphBuilder builder;
  builder.build(inst.network, inst.s, inst.t, AuxGraphOptions{});  // G'
  const auto after_first = builder.stats();
  // A new weighting repatches every arc. G_rc at a ϑ above every load reads
  // the same link sums and transit means as G'.
  AuxGraphOptions grc;
  grc.weighting = AuxWeighting::kCostLoadFiltered;
  grc.theta = 2.0;
  builder.build(inst.network, inst.s, inst.t, grc);
  const auto after_second = builder.stats();
  EXPECT_EQ(after_second.builds, 2u);
  // Nothing changed in the network between builds: the second is all hits.
  EXPECT_EQ(after_second.conv_misses, after_first.conv_misses);
  EXPECT_EQ(after_second.link_misses, after_first.link_misses);
  EXPECT_GT(after_second.link_hits, after_first.link_hits);
  EXPECT_GT(after_second.conv_hits, after_first.conv_hits);
}

TEST(AuxBuilderDifferential, ReserveInvalidatesOnlyTouchedLink) {
  FuzzInstance inst = generate_instance(11);
  net::WdmNetwork& net = inst.network;
  AuxGraphBuilder builder;
  builder.build(net, inst.s, inst.t, AuxGraphOptions{});

  // Reserve a wavelength on a link that stays usable afterwards.
  graph::EdgeId touched = graph::kInvalidEdge;
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    const net::WavelengthSet avail = net.available(e);
    if (avail.count() < 2) continue;
    net.reserve(e, avail.lowest());
    touched = e;
    break;
  }
  ASSERT_NE(touched, graph::kInvalidEdge);
  const auto before = builder.stats();
  const AuxGraph warm = builder.build(net, inst.s, inst.t, AuxGraphOptions{});
  const auto after = builder.stats();
  // The rebuild re-derives only entries touching the mutated link: its own
  // cost sum, and at most the transit pairs it enters or leaves.
  EXPECT_EQ(after.link_misses - before.link_misses, 1u);
  const auto& pg = net.graph();
  const auto touching = static_cast<std::uint64_t>(
      pg.in_degree(pg.tail(touched)) + pg.out_degree(pg.head(touched)));
  EXPECT_LE(after.conv_misses - before.conv_misses, touching);
  const AuxGraph fresh =
      rwa::build_aux_graph(net, inst.s, inst.t, AuxGraphOptions{});
  expect_identical(fresh, warm, "post-reserve rebuild");
}

TEST(AuxBuilderDifferential, RebindsOnDifferentNetworkObject) {
  FuzzInstance a = generate_instance(3);
  FuzzInstance b = generate_instance(4);
  AuxGraphBuilder builder;
  builder.build(a.network, a.s, a.t, AuxGraphOptions{});
  builder.build(b.network, b.s, b.t, AuxGraphOptions{});
  EXPECT_EQ(builder.stats().rebinds, 2u);
  // A copy is a distinct object (fresh uid) even though its state is equal.
  const net::WdmNetwork copy = b.network;
  const AuxGraph warm = builder.build(copy, b.s, b.t, AuxGraphOptions{});
  EXPECT_EQ(builder.stats().rebinds, 3u);
  const AuxGraph fresh =
      rwa::build_aux_graph(copy, b.s, b.t, AuxGraphOptions{});
  expect_identical(fresh, warm, "post-rebind build");
}

}  // namespace
}  // namespace wdm::fuzz
