#include <gtest/gtest.h>

#include "graph/maxflow.hpp"
#include "graph/mincostflow.hpp"
#include "graph/suurballe.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace wdm::graph {
namespace {

/// The classic trap graph: the shortest path 0-1-2-3 uses the middle edge
/// both disjoint routes need; naive two-step fails, Suurballe recovers.
struct Trap {
  Digraph g{4};
  std::vector<double> w;
  Trap() {
    g.add_edge(0, 1);  // 1
    g.add_edge(1, 2);  // 0.1
    g.add_edge(2, 3);  // 1
    g.add_edge(1, 3);  // 3
    g.add_edge(0, 2);  // 3
    w = {1.0, 0.1, 1.0, 3.0, 3.0};
  }
};

TEST(Suurballe, SolvesTrapGraph) {
  Trap trap;
  const DisjointPair pair = suurballe(trap.g, trap.w, 0, 3);
  ASSERT_TRUE(pair.found);
  EXPECT_TRUE(edge_disjoint(pair.first, pair.second));
  EXPECT_DOUBLE_EQ(pair.total_cost(), 8.0);
}

TEST(Suurballe, NaiveTwoStepFailsTrapGraph) {
  Trap trap;
  const DisjointPair naive = naive_two_step(trap.g, trap.w, 0, 3);
  EXPECT_FALSE(naive.found);  // removing 0-1-2-3 disconnects the rest
}

TEST(Suurballe, SimpleDiamond) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  std::vector<double> w{1, 1, 2, 2};
  const DisjointPair pair = suurballe(g, w, 0, 3);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.first.cost, 2.0);   // cheaper path first
  EXPECT_DOUBLE_EQ(pair.second.cost, 4.0);
}

TEST(Suurballe, NotFoundWhenSinglePathOnly) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<double> w{1, 1};
  EXPECT_FALSE(suurballe(g, w, 0, 2).found);
}

TEST(Suurballe, NotFoundWhenUnreachable) {
  Digraph g(3);
  g.add_edge(0, 1);
  std::vector<double> w{1};
  EXPECT_FALSE(suurballe(g, w, 0, 2).found);
}

TEST(Suurballe, RequiresDistinctEndpoints) {
  Digraph g(2);
  g.add_edge(0, 1);
  std::vector<double> w{1};
  EXPECT_THROW(suurballe(g, w, 0, 0), std::logic_error);
}

TEST(Suurballe, ParallelEdgesFormAPair) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  std::vector<double> w{1, 4};
  const DisjointPair pair = suurballe(g, w, 0, 1);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.total_cost(), 5.0);
}

TEST(Suurballe, RespectsEdgeMask) {
  // Arcs are masked by weight: +inf never relaxes, in either round.
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  std::vector<double> w{kInf, 4, 9};
  const DisjointPair pair = suurballe(g, w, 0, 1);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.total_cost(), 13.0);
  w[2] = kInf;  // one finite arc left: no pair
  EXPECT_FALSE(suurballe(g, w, 0, 1).found);
}

TEST(Suurballe, ZeroWeightGraph) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  std::vector<double> w{0, 0, 0, 0};
  const DisjointPair pair = suurballe(g, w, 0, 3);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.total_cost(), 0.0);
}

class SuurballePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SuurballePropertyTest, MatchesMinCostFlowOracle) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n = 4 + static_cast<int>(rng.uniform_int(0, 26));
  const int m = static_cast<int>(rng.uniform_int(n, 5 * n));
  const auto [g, w] = test::random_digraph(n, m, rng);
  const NodeId s = 0;
  const NodeId t = static_cast<NodeId>(n - 1);

  const DisjointPair pair = suurballe(g, w, s, t);
  const auto oracle = min_cost_disjoint_paths(g, w, s, t, 2);

  ASSERT_EQ(pair.found, oracle.has_value());
  if (pair.found) {
    EXPECT_TRUE(edge_disjoint(pair.first, pair.second));
    EXPECT_TRUE(pair.first.contiguous_in(g));
    EXPECT_TRUE(pair.second.contiguous_in(g));
    const double oracle_cost = (*oracle)[0].cost + (*oracle)[1].cost;
    EXPECT_NEAR(pair.total_cost(), oracle_cost, 1e-6);
  }
}

TEST_P(SuurballePropertyTest, FoundIffEdgeConnectivityAtLeastTwo) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  const int n = 4 + static_cast<int>(rng.uniform_int(0, 16));
  const int m = static_cast<int>(rng.uniform_int(n - 1, 3 * n));
  const auto [g, w] = test::random_digraph(n, m, rng);
  const DisjointPair pair = suurballe(g, w, 0, static_cast<NodeId>(n - 1));
  const int connectivity =
      edge_disjoint_path_count(g, 0, static_cast<NodeId>(n - 1));
  EXPECT_EQ(pair.found, connectivity >= 2);
}

TEST_P(SuurballePropertyTest, NaiveNeverBeatsSuurballe) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 1);
  const int n = 4 + static_cast<int>(rng.uniform_int(0, 16));
  const int m = static_cast<int>(rng.uniform_int(n, 4 * n));
  const auto [g, w] = test::random_digraph(n, m, rng);
  const NodeId t = static_cast<NodeId>(n - 1);
  const DisjointPair sb = suurballe(g, w, 0, t);
  const DisjointPair nv = naive_two_step(g, w, 0, t);
  if (nv.found) {
    ASSERT_TRUE(sb.found);  // naive success implies a pair exists
    EXPECT_LE(sb.total_cost(), nv.total_cost() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SuurballePropertyTest,
                         ::testing::Range(0, 30));

TEST(SuurballeNodeDisjoint, RejectsSharedIntermediateNode) {
  // Two edge-disjoint paths exist but both must pass through node 1.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(1, 3);
  std::vector<double> w{1, 1, 1, 1};
  EXPECT_TRUE(suurballe(g, w, 0, 3).found);
  EXPECT_FALSE(suurballe_node_disjoint(g, w, 0, 3).found);
}

TEST(SuurballeNodeDisjoint, FindsNodeDisjointPair) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  std::vector<double> w{1, 1, 2, 2};
  const DisjointPair pair = suurballe_node_disjoint(g, w, 0, 3);
  ASSERT_TRUE(pair.found);
  EXPECT_TRUE(internally_node_disjoint(pair.first, pair.second, g));
  EXPECT_DOUBLE_EQ(pair.total_cost(), 6.0);
}

TEST(SuurballeNodeDisjoint, ThreadLocalArenaSurvivesSizeAlternation) {
  // suurballe_node_disjoint rebuilds its split graph in a thread-local
  // arena (clear_keep_capacity). Alternating between graphs of different
  // shapes on the same thread must leave no stale state behind: every call
  // has to match a fresh computation.
  Digraph small(4);
  small.add_edge(0, 1);
  small.add_edge(1, 3);
  small.add_edge(0, 2);
  small.add_edge(2, 3);
  const std::vector<double> ws{1, 1, 2, 2};

  Digraph big(6);
  big.add_edge(0, 1);
  big.add_edge(1, 5);
  big.add_edge(0, 2);
  big.add_edge(2, 5);
  big.add_edge(0, 3);
  big.add_edge(3, 4);
  big.add_edge(4, 5);
  const std::vector<double> wb{1, 2, 3, 4, 5, 6, 7};

  Digraph sparse(4);  // only one path — must stay infeasible every round
  sparse.add_edge(0, 1);
  sparse.add_edge(1, 3);
  const std::vector<double> wsp{1, 1};

  for (int round = 0; round < 5; ++round) {
    const DisjointPair a = suurballe_node_disjoint(small, ws, 0, 3);
    ASSERT_TRUE(a.found);
    EXPECT_DOUBLE_EQ(a.total_cost(), 6.0);
    EXPECT_TRUE(internally_node_disjoint(a.first, a.second, small));
    const DisjointPair b = suurballe_node_disjoint(big, wb, 0, 5);
    ASSERT_TRUE(b.found);
    EXPECT_DOUBLE_EQ(b.total_cost(), 10.0);  // 1+2 and 3+4
    EXPECT_FALSE(suurballe_node_disjoint(sparse, wsp, 0, 3).found);
  }
}

TEST(SuurballeNodeDisjoint, CostsMappedBackToOriginalWeights) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 4);
  g.add_edge(0, 2);
  g.add_edge(2, 4);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  std::vector<double> w{1, 2, 3, 4, 5, 6};
  const DisjointPair pair = suurballe_node_disjoint(g, w, 0, 4);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.total_cost(), 10.0);  // 1+2 and 3+4
}

// --- SuurballeEngine: the routers' allocation-free solver -----------------
//
// Every engine solve is cold, so the engine's contract is that reusing one
// instance is invisible: a long-lived engine returns a DisjointPair bit for
// bit identical (edges, per-path costs) to a fresh engine on the same
// instance, which checks that the retained scratch is clean between solves.
// Feasibility and total cost agree with min_cost_disjoint_paths, an
// independent successive-shortest-path algorithm; the edges may differ
// under cost ties, where the engine follows its stated canonical p1 rule.

void expect_bitwise(const DisjointPair& a, const DisjointPair& b) {
  ASSERT_EQ(a.found, b.found);
  if (!a.found) return;
  EXPECT_EQ(a.first.edges, b.first.edges);
  EXPECT_EQ(a.second.edges, b.second.edges);
  EXPECT_EQ(a.first.cost, b.first.cost);
  EXPECT_EQ(a.second.cost, b.second.cost);
}

/// The classic two-diamond graph: two edge-disjoint 0 -> 3 paths exist and
/// Suurballe must trade the naive shortest path away to find them.
struct Diamond {
  Digraph g{4};
  std::vector<double> w;
  Diamond() {
    auto add = [&](NodeId a, NodeId b, double weight) {
      g.add_edge(a, b);
      w.push_back(weight);
    };
    add(0, 1, 1.0);  // e0
    add(1, 3, 1.0);  // e1
    add(0, 2, 2.0);  // e2
    add(2, 3, 2.0);  // e3
    add(1, 2, 0.1);  // e4 — tempts the shortest path through both branches
  }
};

DisjointPair fresh_solve(const Digraph& g, const std::vector<double>& w,
                         NodeId s, NodeId t) {
  SuurballeEngine fresh;
  return fresh.solve(g, w, s, t);
}

/// Total cost of the min-cost 2-flow, or -1 when no pair exists.
double mcf_total(const Digraph& g, const std::vector<double>& w, NodeId s,
                 NodeId t) {
  const auto paths = min_cost_disjoint_paths(g, w, s, t, 2);
  return paths ? (*paths)[0].cost + (*paths)[1].cost : -1.0;
}

TEST(SuurballeEngine, MatchesMinCostFlowOnFirstSolve) {
  Diamond d;
  SuurballeEngine eng;
  const DisjointPair pair = eng.solve(d.g, d.w, 0, 3);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(mcf_total(d.g, d.w, 0, 3), pair.total_cost());
}

TEST(SuurballeEngine, EqualCostTieTakesMinimumTightArc) {
  // Three arc-disjoint 0 -> 4 paths of cost 2: C = 0-1-4, B = 0-2-4,
  // A = 0-3-4. Node 0's out-arcs are listed C, B, A, so Dijkstra first
  // reaches 4 through C; the in-arcs of 4 are listed A, B, C, so the
  // minimum-id tight in-arc is A's. The canonical rule therefore takes
  // p1 = A, and round 2 (whose heap pops the first-pushed of equal keys)
  // adds C. A maximum-id rule would take p1 = C and pair it with B.
  Digraph g(5);
  g.add_edge(0, 1);  // e0  C
  g.add_edge(0, 2);  // e1  B
  g.add_edge(0, 3);  // e2  A
  g.add_edge(3, 4);  // e3  A
  g.add_edge(2, 4);  // e4  B
  g.add_edge(1, 4);  // e5  C
  const std::vector<double> w(6, 1.0);
  SuurballeEngine eng;
  const DisjointPair pair = eng.solve(g, w, 0, 4);
  ASSERT_TRUE(pair.found);
  EXPECT_EQ(pair.first.edges, (std::vector<EdgeId>{2, 3}));
  EXPECT_EQ(pair.second.edges, (std::vector<EdgeId>{0, 5}));
  EXPECT_EQ(pair.first.cost, 2.0);
  EXPECT_EQ(pair.second.cost, 2.0);
  // Min-cost flow settles the tie its own way; only the optimum is shared.
  EXPECT_EQ(mcf_total(g, w, 0, 4), pair.total_cost());
}

TEST(SuurballeEngine, ReusedEngineMatchesFreshAfterWeightIncrease) {
  Diamond d;
  SuurballeEngine eng;
  eng.solve(d.g, d.w, 0, 3);
  // e0 sits on the round-1 shortest path; raising it moves p1.
  d.w[0] = 5.0;
  expect_bitwise(fresh_solve(d.g, d.w, 0, 3), eng.solve(d.g, d.w, 0, 3));
}

TEST(SuurballeEngine, ReusedEngineMatchesFreshAfterWeightDecrease) {
  Diamond d;
  SuurballeEngine eng;
  eng.solve(d.g, d.w, 0, 3);
  // e2 is off the round-1 path to 3; making it nearly free reroutes.
  d.w[2] = 0.01;
  expect_bitwise(fresh_solve(d.g, d.w, 0, 3), eng.solve(d.g, d.w, 0, 3));
}

TEST(SuurballeEngine, InfeasibleThenFeasibleAgain) {
  Diamond d;
  SuurballeEngine eng;
  ASSERT_TRUE(eng.solve(d.g, d.w, 0, 3).found);
  // Price one branch out entirely: only one finite path remains, so no
  // disjoint pair. (kInf arcs are how the stable arena disables links.)
  const double save2 = d.w[2];
  const double save3 = d.w[3];
  d.w[2] = kInf;
  d.w[3] = kInf;
  EXPECT_FALSE(eng.solve(d.g, d.w, 0, 3).found);
  d.w[2] = save2;
  d.w[3] = save3;
  expect_bitwise(fresh_solve(d.g, d.w, 0, 3), eng.solve(d.g, d.w, 0, 3));
}

TEST(SuurballeEngine, RandomizedDriftReusedMatchesFreshBitForBit) {
  // Random graphs under random weight drift, with sources, sinks and graph
  // shapes changing between solves; every solve of one long-lived engine is
  // compared bitwise against a fresh engine and checked against the
  // min-cost flow's feasibility and optimum.
  support::Rng rng(2024);
  SuurballeEngine eng;
  for (int inst = 0; inst < 10; ++inst) {
    const NodeId n = 12 + static_cast<NodeId>(rng.index(8));
    Digraph g(n);
    std::vector<double> w;
    for (NodeId a = 0; a < n; ++a) {
      for (int k = 0; k < 4; ++k) {
        const NodeId b = static_cast<NodeId>(
            rng.index(static_cast<std::size_t>(n)));
        if (b == a) continue;
        g.add_edge(a, b);
        w.push_back(rng.uniform(0.5, 10.0));
      }
    }
    for (int step = 0; step < 12; ++step) {
      // Drift ~20% of the weights, both directions.
      for (std::size_t e = 0; e < w.size(); ++e) {
        if (rng.uniform() < 0.2) w[e] = rng.uniform(0.5, 10.0);
      }
      const auto s = static_cast<NodeId>(rng.index(3));
      const NodeId t = n - 1 - static_cast<NodeId>(rng.index(3));
      const DisjointPair reused = eng.solve(g, w, s, t);
      expect_bitwise(fresh_solve(g, w, s, t), reused);
      if (HasFatalFailure()) return;
      const auto oracle = min_cost_disjoint_paths(g, w, s, t, 2);
      ASSERT_EQ(oracle.has_value(), reused.found);
      if (oracle) {
        EXPECT_NEAR((*oracle)[0].cost + (*oracle)[1].cost,
                    reused.total_cost(), 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace wdm::graph
