#include <gtest/gtest.h>

#include "rwa/approx_router.hpp"
#include "rwa/layered_graph.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"
#include "topology/network_builder.hpp"
#include "topology/topologies.hpp"

namespace wdm::rwa {
namespace {

namespace tel = support::telemetry;

/// How often optimal_semilightpath took each solver while `body` ran.
struct SolverCounts {
  std::uint64_t path_dp = 0;
  std::uint64_t layered = 0;
};

template <typename F>
SolverCounts count_solvers(F&& body) {
  tel::reset();
  tel::set_enabled(true);
  body();
  tel::set_enabled(false);
  const auto values = tel::counter_values();
  auto get = [&](const char* name) -> std::uint64_t {
    const auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  };
  return {get("rwa.liang_shen.path_dp"), get("rwa.liang_shen.layered")};
}

/// The layered solver composed by hand: the reference the DP must match.
net::Semilightpath layered_solve(const net::WdmNetwork& n, NodeId s, NodeId t,
                                 std::span<const std::uint8_t> mask = {}) {
  const LayeredGraph lg = LayeredGraph::build(n, s, t, mask);
  return lg.to_semilightpath(lg.shortest_path());
}

/// Solves through optimal_semilightpath, checks which solver ran and that
/// the hand-composed layered solver agrees exactly.
net::Semilightpath solve_expecting(const net::WdmNetwork& n, NodeId s,
                                   NodeId t, bool expect_dp,
                                   std::span<const std::uint8_t> mask = {}) {
  net::Semilightpath got;
  const SolverCounts c =
      count_solvers([&] { got = optimal_semilightpath(n, s, t, mask); });
  if (tel::compiled_in()) {
    EXPECT_EQ(c.path_dp, expect_dp ? 1u : 0u);
    EXPECT_EQ(c.layered, expect_dp ? 0u : 1u);
  }
  const net::Semilightpath want = layered_solve(n, s, t, mask);
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.hops, want.hops);
  return got;
}

net::WavelengthSet lambdas(std::initializer_list<net::Wavelength> ls) {
  net::WavelengthSet set;
  for (net::Wavelength l : ls) set.insert(l);
  return set;
}

TEST(LayeredGraph, NodeAndHubLayout) {
  net::WdmNetwork n(3, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(2), 1.0);
  const LayeredGraph lg = LayeredGraph::build(n, 0, 2);
  // 2 copies (in/out) per (node, λ) + two hubs.
  EXPECT_EQ(lg.g.num_nodes(), 2 * 3 * 2 + 2);
  // Arcs: identity conversions 3 nodes * 2 λ = 6, traversal 2 links * 2 λ =
  // 4, hubs 2 * 2 = 4.
  EXPECT_EQ(lg.g.num_edges(), 14);
}

TEST(LayeredGraph, ConversionArcsFollowTable) {
  net::WdmNetwork n(1, 3);
  n.set_conversion(0, net::ConversionTable::full(3, 0.1));
  const LayeredGraph lg = LayeredGraph::build(n, 0, 0);
  // 9 conversion arcs (full 3x3) + 3+3 hub arcs.
  EXPECT_EQ(lg.g.num_edges(), 9 + 6);
}

TEST(OptimalSemilightpath, SingleHopPicksCheapestWavelength) {
  net::WdmNetwork n(2, 3);
  const std::vector<double> costs{5.0, 2.0, 7.0};
  n.add_link(0, 1, net::WavelengthSet::all(3), costs);
  const net::Semilightpath p = optimal_semilightpath(n, 0, 1);
  ASSERT_TRUE(p.found);
  ASSERT_EQ(p.hops.size(), 1u);
  EXPECT_EQ(p.hops[0].lambda, 1);
  EXPECT_DOUBLE_EQ(p.cost(n), 2.0);
}

TEST(OptimalSemilightpath, ConversionUsedWhenWorthIt) {
  // λ0 cheap on link 1, λ1 cheap on link 2; conversion costs 0.1.
  net::WdmNetwork n(3, 2);
  n.set_conversion(1, net::ConversionTable::full(2, 0.1));
  const std::vector<double> c01{1.0, 10.0};
  const std::vector<double> c12{10.0, 1.0};
  n.add_link(0, 1, net::WavelengthSet::all(2), c01);
  n.add_link(1, 2, net::WavelengthSet::all(2), c12);
  const net::Semilightpath p = optimal_semilightpath(n, 0, 2);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.conversions(n), 1);
  EXPECT_DOUBLE_EQ(p.cost(n), 2.1);
}

TEST(OptimalSemilightpath, ConversionAvoidedWhenExpensive) {
  net::WdmNetwork n(3, 2);
  n.set_conversion(1, net::ConversionTable::full(2, 100.0));
  const std::vector<double> c01{1.0, 10.0};
  const std::vector<double> c12{10.0, 1.0};
  n.add_link(0, 1, net::WavelengthSet::all(2), c01);
  n.add_link(1, 2, net::WavelengthSet::all(2), c12);
  const net::Semilightpath p = optimal_semilightpath(n, 0, 2);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.conversions(n), 0);
  EXPECT_DOUBLE_EQ(p.cost(n), 11.0);
}

TEST(OptimalSemilightpath, WavelengthContinuityWithoutConversion) {
  // No conversion anywhere: λ must be continuous; only λ1 is on both links.
  net::WdmNetwork n(3, 2);
  net::WavelengthSet only0, only01;
  only0.insert(0);
  only01.insert(0);
  only01.insert(1);
  net::WavelengthSet only1;
  only1.insert(1);
  n.add_link(0, 1, only01, 1.0);
  n.add_link(1, 2, only1, 1.0);
  const net::Semilightpath p = optimal_semilightpath(n, 0, 2);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops[0].lambda, 1);
  EXPECT_EQ(p.hops[1].lambda, 1);
}

TEST(OptimalSemilightpath, BlockedByWavelengthMismatch) {
  net::WdmNetwork n(3, 2);  // no conversion
  net::WavelengthSet only0;
  only0.insert(0);
  net::WavelengthSet only1;
  only1.insert(1);
  n.add_link(0, 1, only0, 1.0);
  n.add_link(1, 2, only1, 1.0);
  EXPECT_FALSE(optimal_semilightpath(n, 0, 2).found);
  // Adding conversion at node 1 unblocks it.
  n.set_conversion(1, net::ConversionTable::full(2, 0.2));
  EXPECT_TRUE(optimal_semilightpath(n, 0, 2).found);
}

TEST(OptimalSemilightpath, UsesOnlyAvailableWavelengths) {
  net::WdmNetwork n(2, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.reserve(0, 0);
  const net::Semilightpath p = optimal_semilightpath(n, 0, 1);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops[0].lambda, 1);
  n.reserve(0, 1);
  EXPECT_FALSE(optimal_semilightpath(n, 0, 1).found);
}

TEST(OptimalSemilightpath, RespectsLinkMask) {
  net::WdmNetwork n(3, 1);
  n.add_link(0, 2, net::WavelengthSet::all(1), 1.0);  // direct
  n.add_link(0, 1, net::WavelengthSet::all(1), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(1), 1.0);
  std::vector<std::uint8_t> mask{0, 1, 1};
  const net::Semilightpath p = optimal_semilightpath(n, 0, 2, mask);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.length(), 2u);
}

TEST(LayeredGraph, MaskedBuildCompactsToActiveNodes) {
  // With a confining mask only nodes incident to enabled links (plus the
  // endpoints) receive wavelength layers; the rest of the topology must not
  // contribute conversion arcs or node copies.
  net::WdmNetwork n(6, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(2), 1.0);
  n.add_link(2, 3, net::WavelengthSet::all(2), 1.0);
  n.add_link(3, 4, net::WavelengthSet::all(2), 1.0);
  n.add_link(4, 5, net::WavelengthSet::all(2), 1.0);
  std::vector<std::uint8_t> mask{1, 1, 0, 0, 0};  // links 0-1, 1-2 only
  const LayeredGraph lg = LayeredGraph::build(n, 0, 2, mask);
  // Active nodes: {0, 2} (endpoints) ∪ {0, 1, 2} = 3 of 6.
  EXPECT_EQ(lg.g.num_nodes(), 2 * 3 * 2 + 2);
  const LayeredGraph dense = LayeredGraph::build(n, 0, 2);
  EXPECT_EQ(dense.g.num_nodes(), 2 * 6 * 2 + 2);
}

TEST(OptimalSemilightpath, CompactionIsBehaviorallyInvisible) {
  // The compacted masked build must find paths of identical cost to the
  // dense unmasked build whenever the mask admits every link (all-ones mask
  // vs empty mask take the compacted and historical code paths
  // respectively).
  support::Rng rng(77);
  for (int inst = 0; inst < 8; ++inst) {
    net::WdmNetwork n(8, 3);
    for (int i = 0; i + 1 < 8; ++i) {
      n.add_link(i, i + 1, net::WavelengthSet::all(3), rng.uniform(1.0, 5.0));
    }
    for (int k = 0; k < 5; ++k) {
      const auto a = static_cast<net::NodeId>(rng.index(8));
      const auto b = static_cast<net::NodeId>(rng.index(8));
      if (a == b || n.graph().find_edge(a, b) != graph::kInvalidEdge) continue;
      n.add_link(a, b, net::WavelengthSet::all(3), rng.uniform(1.0, 5.0));
    }
    n.set_conversion(3, net::ConversionTable::full(3, 0.2));
    const std::vector<std::uint8_t> all_on(
        static_cast<std::size_t>(n.num_links()), 1);
    for (net::NodeId t = 1; t < 8; ++t) {
      const net::Semilightpath dense = optimal_semilightpath(n, 0, t);
      const net::Semilightpath compact = optimal_semilightpath(n, 0, t, all_on);
      ASSERT_EQ(dense.found, compact.found) << "t=" << t;
      if (dense.found) {
        EXPECT_DOUBLE_EQ(dense.cost(n), compact.cost(n)) << "t=" << t;
      }
    }
  }
}

TEST(OptimalSemilightpath, SingleConversionPerNodeEnforced) {
  // Table allows 0->1 and 1->2 but NOT 0->2. If conversion chains inside a
  // node were possible, the path below would exist.
  net::WdmNetwork n(3, 3);
  net::ConversionTable tbl(3);
  tbl.set(0, 1, 0.1);
  tbl.set(1, 2, 0.1);
  n.set_conversion(1, tbl);
  net::WavelengthSet only0, only2;
  only0.insert(0);
  only2.insert(2);
  n.add_link(0, 1, only0, 1.0);
  n.add_link(1, 2, only2, 1.0);
  EXPECT_FALSE(optimal_semilightpath(n, 0, 2).found);
}

class LayeredPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LayeredPropertyTest, MatchesBruteForceOnRandomNetworks) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  topo::NetworkOptions opt;
  opt.cost_model = topo::CostModel::kRandomPerWavelength;
  opt.conversion_model = (seed % 3 == 0) ? topo::ConversionModel::kNone
                         : (seed % 3 == 1)
                             ? topo::ConversionModel::kFullUniform
                             : topo::ConversionModel::kLimitedRange;
  opt.install_probability = 0.8;
  net::WdmNetwork n = test::random_network(5, 4, 3, seed * 131 + 17, opt);

  const net::Semilightpath got = optimal_semilightpath(n, 0, 4);
  const auto want = test::brute_force_semilightpath(n, 0, 4);
  // The brute force ranges over *simple* physical paths; with limited-range
  // conversion the true optimum may revisit a node to chain conversions, so
  // it is an upper bound in general and exact otherwise.
  if (want.has_value()) {
    ASSERT_TRUE(got.found);
    EXPECT_LE(got.cost(n), want->cost(n) + 1e-9);
  }
  if (got.found) {
    EXPECT_TRUE(got.fits_residual(n));
    if (opt.conversion_model != topo::ConversionModel::kLimitedRange) {
      ASSERT_TRUE(want.has_value());
      EXPECT_NEAR(got.cost(n), want->cost(n), 1e-9);
    }
  }
}

TEST_P(LayeredPropertyTest, OptimalNeverBeatenUnderResidualChanges) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::WdmNetwork n = test::random_network(6, 6, 3, seed * 997 + 3);
  support::Rng rng(seed);
  // Randomly occupy some wavelengths, then check optimality again.
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.3)) n.reserve(e, l);
    });
  }
  const net::Semilightpath got = optimal_semilightpath(n, 0, 5);
  const auto want = test::brute_force_semilightpath(n, 0, 5);
  ASSERT_EQ(got.found, want.has_value());
  if (got.found) {
    EXPECT_NEAR(got.cost(n), want->cost(n), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, LayeredPropertyTest,
                         ::testing::Range(0, 25));

// --- The path DP fast path and the shared tie rule -------------------------

TEST(PathDp, SingleHop) {
  net::WdmNetwork n(2, 4);
  const std::vector<double> costs{3.0, 2.0, 2.0, 1.0};
  n.add_link(0, 1, lambdas({0, 1, 2}), costs);
  const net::Semilightpath p = solve_expecting(n, 0, 1, /*expect_dp=*/true);
  ASSERT_TRUE(p.found);
  ASSERT_EQ(p.hops.size(), 1u);
  // λ3 is cheapest but not installed; λ1 and λ2 tie: the lowest wins.
  EXPECT_EQ(p.hops[0], (net::Hop{0, 1}));
}

TEST(PathDp, LimitedRangeConversion) {
  // λ0 only on the first link, λ3 only on the last: range-1 converters must
  // step 0 -> 1 -> 2 -> 3 over the three intermediate nodes.
  net::WdmNetwork n(5, 4);
  for (NodeId v = 0; v < 5; ++v) {
    n.set_conversion(v, net::ConversionTable::limited_range(4, 1, 0.25));
  }
  n.add_link(0, 1, lambdas({0}), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(4), 1.0);
  n.add_link(2, 3, net::WavelengthSet::all(4), 1.0);
  n.add_link(3, 4, lambdas({3}), 1.0);
  const net::Semilightpath p = solve_expecting(n, 0, 4, true);
  ASSERT_TRUE(p.found);
  EXPECT_TRUE(p.well_formed(n));
  EXPECT_EQ(p.conversions(n), 3);
  EXPECT_DOUBLE_EQ(p.cost(n), 4.75);
  // Range 1 cannot bridge 0 -> 3 over two converters.
  n.set_conversion(3, net::ConversionTable::none(4));
  EXPECT_FALSE(solve_expecting(n, 0, 4, true).found);
}

TEST(PathDp, SparseConversionTable) {
  // Node 1 converts only 0 -> 2 (dear) and 1 -> 2 (cheap); 0 -> 1 is absent.
  net::WdmNetwork n(3, 3);
  net::ConversionTable tbl(3);
  tbl.set(0, 2, 5.0);
  tbl.set(1, 2, 0.5);
  n.set_conversion(1, tbl);
  const std::vector<double> first{1.0, 3.0, 9.0};
  n.add_link(0, 1, net::WavelengthSet::all(3), first);
  n.add_link(1, 2, lambdas({1, 2}), 1.0);
  const net::Semilightpath p = solve_expecting(n, 0, 2, true);
  ASSERT_TRUE(p.found);
  // Candidates: (λ1, λ1) = 4; (λ1 -> λ2) = 4.5; (λ0 -> λ2) = 7; (λ2, λ2) = 10.
  EXPECT_EQ(p.hops[0], (net::Hop{0, 1}));
  EXPECT_EQ(p.hops[1], (net::Hop{1, 1}));
  EXPECT_DOUBLE_EQ(p.cost(n), 4.0);
}

TEST(PathDp, PerWavelengthWeights) {
  net::WdmNetwork n(4, 3);
  for (NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(3, 0.5));
  }
  const std::vector<double> a{1.0, 4.0, 4.0};
  const std::vector<double> b{4.0, 1.0, 4.0};
  const std::vector<double> c{4.0, 4.0, 1.0};
  n.add_link(0, 1, net::WavelengthSet::all(3), a);
  n.add_link(1, 2, net::WavelengthSet::all(3), b);
  n.add_link(2, 3, net::WavelengthSet::all(3), c);
  const net::Semilightpath p = solve_expecting(n, 0, 3, true);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops[0].lambda, 0);
  EXPECT_EQ(p.hops[1].lambda, 1);
  EXPECT_EQ(p.hops[2].lambda, 2);
  EXPECT_DOUBLE_EQ(p.cost(n), 4.0);
}

TEST(PathDp, NoWavelengthContinuationIsNotFound) {
  net::WdmNetwork n(4, 3);  // no conversion anywhere
  n.add_link(0, 1, lambdas({0, 1}), 1.0);
  n.add_link(1, 2, lambdas({1, 2}), 1.0);
  n.add_link(2, 3, lambdas({0, 2}), 1.0);
  EXPECT_FALSE(solve_expecting(n, 0, 3, true).found);
  // A fully reserved link blocks too.
  n.add_link(0, 3, lambdas({0}), 1.0);
  n.reserve(3, 0);
  const std::vector<std::uint8_t> direct{0, 0, 0, 1};
  EXPECT_FALSE(solve_expecting(n, 0, 3, true, direct).found);
}

TEST(PathDp, BranchingOrRevisitingMasksTakeTheLayeredGraph) {
  // Diamond 0 -> {1, 2} -> 3 plus links 1 -> 2, 2 -> 1 and 2 -> 0.
  net::WdmNetwork n(4, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);  // 0
  n.add_link(1, 3, net::WavelengthSet::all(2), 1.0);  // 1
  n.add_link(0, 2, net::WavelengthSet::all(2), 1.0);  // 2
  n.add_link(2, 3, net::WavelengthSet::all(2), 1.0);  // 3
  n.add_link(1, 2, net::WavelengthSet::all(2), 1.0);  // 4
  n.add_link(2, 1, net::WavelengthSet::all(2), 1.0);  // 5
  n.add_link(2, 0, net::WavelengthSet::all(2), 1.0);  // 6
  using Mask = std::vector<std::uint8_t>;
  // The one path 0 -> 1 -> 3: DP.
  EXPECT_TRUE(solve_expecting(n, 0, 3, true, Mask{1, 1, 0, 0, 0, 0, 0}).found);
  // Branching at 0.
  EXPECT_TRUE(solve_expecting(n, 0, 3, false, Mask{1, 1, 1, 1, 0, 0, 0}).found);
  // A projection revisiting node 1: 0 -> 1 -> 2 -> 1 -> 3.
  EXPECT_TRUE(solve_expecting(n, 0, 3, false, Mask{1, 1, 0, 0, 1, 1, 0}).found);
  // A cycle 0 -> 2 -> 0 that never reaches t, beside a stranded 1 -> 3.
  EXPECT_FALSE(
      solve_expecting(n, 0, 3, false, Mask{0, 1, 1, 0, 0, 0, 1}).found);
  // A stray link off the path (2 -> 3 beside 0 -> 1 -> 3).
  EXPECT_TRUE(solve_expecting(n, 0, 3, false, Mask{1, 1, 0, 1, 0, 0, 0}).found);
  // Unmasked on a non-path network.
  EXPECT_TRUE(solve_expecting(n, 0, 3, false).found);
}

TEST(PathDp, SixtyFourWavelengths) {
  constexpr int W = 64;
  net::WdmNetwork n(5, W);
  for (NodeId v = 0; v < 5; ++v) {
    n.set_conversion(v, net::ConversionTable::limited_range(W, 8, 0.125));
  }
  support::Rng rng(64);
  for (NodeId v = 0; v + 1 < 5; ++v) {
    std::vector<double> costs(W);
    for (double& c : costs) c = rng.uniform(1.0, 2.0);
    n.add_link(v, v + 1, net::WavelengthSet::all(W), costs);
    // Leave a random third of the channels free.
    for (net::Wavelength l = 0; l < W; ++l) {
      if (rng.bernoulli(0.66)) n.reserve(v, l);
    }
  }
  const net::Semilightpath p = solve_expecting(n, 0, 4, true);
  ASSERT_TRUE(p.found);
  EXPECT_TRUE(p.fits_residual(n));
  const auto want = test::brute_force_semilightpath(n, 0, 4);
  ASSERT_TRUE(want.has_value());
  EXPECT_NEAR(p.cost(n), want->cost(n), 1e-9);
}

TEST(PathDp, TieRuleOnAHandBuiltTie) {
  // 0 -a-> 1 -b-> 2 -c-> 3, unit links, conversion 0.5 at 1 and 2.
  // a carries only λ0, c only λ1, b both: converting at node 1 or at node 2
  // costs exactly 3.5 either way. The rule walks back from t: c is on λ1;
  // at node 2 the pass-through on λ1 is tight, so b keeps λ1 and the
  // conversion happens at node 1.
  net::WdmNetwork n(4, 2);
  n.set_conversion(1, net::ConversionTable::full(2, 0.5));
  n.set_conversion(2, net::ConversionTable::full(2, 0.5));
  n.add_link(0, 1, lambdas({0}), 1.0);
  n.add_link(1, 2, lambdas({0, 1}), 1.0);
  n.add_link(2, 3, lambdas({1}), 1.0);
  const net::Semilightpath p = solve_expecting(n, 0, 3, true);
  ASSERT_TRUE(p.found);
  const std::vector<net::Hop> early{{0, 0}, {1, 1}, {2, 1}};
  EXPECT_EQ(p.hops, early);
  EXPECT_DOUBLE_EQ(p.cost(n), 3.5);

  // With every λ free on all three links, the four conversion-free lightpaths
  // tie with nothing cheaper: the lowest λ on the last hop, kept throughout.
  net::WdmNetwork m(4, 4);
  for (NodeId v = 0; v < 4; ++v) {
    m.set_conversion(v, net::ConversionTable::full(4, 0.0));
  }
  for (NodeId v = 0; v + 1 < 4; ++v) {
    m.add_link(v, v + 1, lambdas({1, 2, 3}), 1.0);
  }
  const net::Semilightpath q = solve_expecting(m, 0, 3, true);
  const std::vector<net::Hop> lowest{{0, 1}, {1, 1}, {2, 1}};
  EXPECT_EQ(q.hops, lowest);
}

TEST(PathDp, LayeredTieRulePicksTheLowestLinkIdAtABranch) {
  // Two equal two-hop routes into t: the lowest tight link id into each copy
  // decides, so the route through the lower-numbered link into t wins.
  for (const bool upper_first : {true, false}) {
    net::WdmNetwork n(4, 1);
    if (upper_first) {
      n.add_link(0, 1, net::WavelengthSet::all(1), 1.0);
      n.add_link(1, 3, net::WavelengthSet::all(1), 1.0);
      n.add_link(0, 2, net::WavelengthSet::all(1), 1.0);
      n.add_link(2, 3, net::WavelengthSet::all(1), 1.0);
    } else {
      n.add_link(0, 2, net::WavelengthSet::all(1), 1.0);
      n.add_link(2, 3, net::WavelengthSet::all(1), 1.0);
      n.add_link(0, 1, net::WavelengthSet::all(1), 1.0);
      n.add_link(1, 3, net::WavelengthSet::all(1), 1.0);
    }
    const net::Semilightpath p = solve_expecting(n, 0, 3, false);
    ASSERT_TRUE(p.found);
    const std::vector<EdgeId> want{0, 1};
    EXPECT_EQ(p.physical_edges(), want) << "upper_first=" << upper_first;
  }
}

TEST(PathDp, LayeredWalkCutsZeroCostLoops) {
  // A zero-cost 1 <-> 2 loop whose return link has the lowest id: the
  // lowest tight in-arc of node 1 points back around the loop, and the walk
  // must cut it rather than spin.
  net::WdmNetwork n(4, 1);
  n.add_link(2, 1, net::WavelengthSet::all(1), 0.0);  // 0
  n.add_link(1, 2, net::WavelengthSet::all(1), 0.0);  // 1
  n.add_link(0, 1, net::WavelengthSet::all(1), 1.0);  // 2
  n.add_link(2, 3, net::WavelengthSet::all(1), 1.0);  // 3
  const net::Semilightpath p = solve_expecting(n, 0, 3, false);
  ASSERT_TRUE(p.found);
  const std::vector<EdgeId> want{2, 1, 3};
  EXPECT_EQ(p.physical_edges(), want);
  EXPECT_DOUBLE_EQ(p.cost(n), 2.0);
}

// --- Which solver the request path takes ------------------------------------

TEST(LiangShenCounters, NsfnetApproxRefinementAlwaysTakesThePathDp) {
  net::WdmNetwork n = topo::nsfnet_network(/*W=*/8, 0.5);
  const ApproxDisjointRouter router(/*refine=*/true);
  long found = 0;
  const SolverCounts c = count_solvers([&] {
    for (NodeId s = 0; s < n.num_nodes(); ++s) {
      for (NodeId t = 0; t < n.num_nodes(); ++t) {
        if (s == t) continue;
        const RouteResult r = router.route(n, s, t);
        if (!r.found) continue;
        ++found;
        // Load the network so later queries see a residual state.
        r.route.primary.reserve_in(n);
      }
    }
  });
  ASSERT_GT(found, 0);
  if (!tel::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  EXPECT_EQ(c.path_dp, 2u * static_cast<std::uint64_t>(found));
  EXPECT_EQ(c.layered, 0u);
}

TEST(LiangShenCounters, SimulatorReprovisioningTakesTheLayeredGraph) {
  const ApproxDisjointRouter router(/*refine=*/true);
  sim::SimOptions opt;
  opt.traffic.arrival_rate = 20.0;
  opt.duration = 60.0;
  opt.seed = 11;
  opt.restoration = sim::RestorationMode::kActive;
  opt.failures.duplex_failure_rate = 0.05;
  opt.failures.mean_repair = 1.0;
  opt.failures.reprovision_backup = true;
  opt.reverse_of = topo::nsfnet().reverse_of;
  sim::SimMetrics m;
  const SolverCounts c = count_solvers([&] {
    sim::Simulator sim(topo::nsfnet_network(8, 0.5), router, opt);
    m = sim.run();
  });
  if (!tel::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  // Every restoration-side solve (a fresh backup after a lost one or after
  // a switchover, a recompute after losing both) masks only the primary's
  // links out of NSFNET — never a simple path.
  ASSERT_GT(m.backup_lost + m.recoveries_attempted, 0);
  EXPECT_EQ(c.layered,
            static_cast<std::uint64_t>(m.backup_lost + m.recoveries_attempted));
  EXPECT_GT(c.path_dp, 0u);
}

}  // namespace
}  // namespace wdm::rwa
