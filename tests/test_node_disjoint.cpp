#include <gtest/gtest.h>

#include <set>

#include "rwa/approx_router.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/node_disjoint_router.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "topology/network_builder.hpp"

namespace wdm::rwa {
namespace {

bool internally_node_disjoint(const net::WdmNetwork& n,
                              const net::Semilightpath& a,
                              const net::Semilightpath& b) {
  std::set<net::NodeId> inner;
  for (std::size_t i = 0; i + 1 < a.hops.size(); ++i) {
    inner.insert(n.graph().head(a.hops[i].edge));
  }
  for (std::size_t i = 0; i + 1 < b.hops.size(); ++i) {
    if (inner.count(n.graph().head(b.hops[i].edge))) return false;
  }
  return true;
}

/// Bowtie: every pair of edge-disjoint paths shares node 2.
net::WdmNetwork bowtie() {
  net::WdmNetwork n(5, 2);
  for (net::NodeId v = 0; v < 5; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, 0.1));
  }
  const auto all = net::WavelengthSet::all(2);
  n.add_link(0, 1, all, 1.0);
  n.add_link(0, 2, all, 1.0);
  n.add_link(1, 2, all, 1.0);
  n.add_link(2, 3, all, 1.0);
  n.add_link(2, 4, all, 1.0);
  n.add_link(3, 4, all, 1.0);
  return n;
}

TEST(NodeDisjointRouter, BlocksOnBowtieWhereEdgeDisjointSucceeds) {
  const net::WdmNetwork n = bowtie();
  EXPECT_TRUE(ApproxDisjointRouter().route(n, 0, 4).found);
  EXPECT_FALSE(NodeDisjointRouter().route(n, 0, 4).found);
}

TEST(NodeDisjointRouter, FindsNodeDisjointPairOnSquare) {
  net::WdmNetwork n(4, 2);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, 0.1));
  }
  const auto all = net::WavelengthSet::all(2);
  n.add_link(0, 1, all, 1.0);
  n.add_link(1, 3, all, 1.0);
  n.add_link(0, 2, all, 1.0);
  n.add_link(2, 3, all, 1.0);
  const RouteResult r = NodeDisjointRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
  EXPECT_TRUE(internally_node_disjoint(n, r.route.primary, r.route.backup));
}

TEST(NodeDisjointRouter, ParallelFibersAreNodeDisjoint) {
  net::WdmNetwork n(2, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(0, 1, net::WavelengthSet::all(2), 2.0);
  const RouteResult r = NodeDisjointRouter().route(n, 0, 1);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(net::edge_disjoint(r.route.primary, r.route.backup));
}

class NodeDisjointPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NodeDisjointPropertyTest, DeliveredPairsAreNodeDisjointAndValid) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::WdmNetwork n = test::random_network(10, 12, 3, seed * 271 + 9);
  support::Rng rng(seed);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.3)) n.reserve(e, l);
    });
  }
  const RouteResult r = NodeDisjointRouter().route(n, 0, 9);
  if (!r.found) return;
  EXPECT_TRUE(r.route.feasible(n));
  EXPECT_TRUE(internally_node_disjoint(n, r.route.primary, r.route.backup));
  // Node-disjoint is never cheaper than the best edge-disjoint pair.
  const RouteResult edge = ApproxDisjointRouter().route(n, 0, 9);
  ASSERT_TRUE(edge.found);  // node-disjoint existence implies edge-disjoint
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, NodeDisjointPropertyTest,
                         ::testing::Range(0, 20));

TEST(NodeDisjointAux, GadgetCountsOnSquare) {
  net::WdmNetwork n(4, 2);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, 0.1));
  }
  const auto all = net::WavelengthSet::all(2);
  n.add_link(0, 1, all, 1.0);
  n.add_link(1, 3, all, 1.0);
  n.add_link(0, 2, all, 1.0);
  n.add_link(2, 3, all, 1.0);
  AuxGraphOptions opt;
  opt.protect_nodes = true;
  const AuxGraph aux = build_aux_graph(n, 0, 3, opt);
  // Nodes on a finite arc: edge nodes 8 + hubs for nodes 1, 2 (2 each) +
  // s' + t''. The arena's other arcs carry +inf.
  std::set<graph::NodeId> live;
  for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
    if (aux.w[static_cast<std::size_t>(a)] == graph::kInf) continue;
    live.insert(aux.g.tail(a));
    live.insert(aux.g.head(a));
  }
  EXPECT_EQ(live.size(), 8u + 4u + 2u);
  // One capacity hub arc per transited node.
  EXPECT_EQ(aux.num_transit_arcs, 2);
}

}  // namespace
}  // namespace wdm::rwa
