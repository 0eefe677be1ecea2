// Suurballe's algorithm [Suurballe, Networks 1974]: a min-total-cost pair of
// edge-disjoint s->t paths, computed with two Dijkstra passes over reduced
// costs. This is the `Find_Two_Paths` procedure of the paper (§3.3.2), run
// there on the auxiliary graph G'.
//
// Round 1 grows a full shortest-path tree; round 2 runs Dijkstra on the
// reduced-cost graph in which the round-1 path is reversed with cost 0
// (the paper's E_reserve), after which interlacing edges cancel
// (E_intersect) and the union decomposes into the two paths.
//
// There is one implementation, SuurballeEngine, with a stated tie rule (see
// below); graph::suurballe() is a one-shot wrapper over a local engine.
// Arcs of weight +inf never relax, so callers disable arcs by weight rather
// than by mask. Independent cross-checks use graph::min_cost_disjoint_paths.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/heaps.hpp"
#include "graph/path.hpp"

namespace wdm::graph {

struct DisjointPair {
  Path first;   // valid iff found
  Path second;  // valid iff found
  bool found = false;

  double total_cost() const { return first.cost + second.cost; }
};

/// Minimum-total-weight pair of edge-disjoint paths s -> t, or found == false
/// when no such pair exists. Weights must be nonnegative; +inf disables an
/// arc. Requires s != t. One-shot: allocates a SuurballeEngine per call and
/// inherits its tie rule and precondition.
DisjointPair suurballe(const Digraph& g, std::span<const double> w, NodeId s,
                       NodeId t);

/// Node-disjoint variant via the standard node-splitting transform: returns a
/// min-total-weight pair of internally node-disjoint paths. (Extension beyond
/// the paper — protects against single *node* failures.)
DisjointPair suurballe_node_disjoint(
    const Digraph& g, std::span<const double> w, NodeId s, NodeId t,
    std::span<const std::uint8_t> edge_enabled = {});

/// Baseline for E10: greedily take the shortest path, delete its edges, take
/// the next shortest path. Cheaper per query but fails on "trap" topologies
/// where the first path uses edges both disjoint paths need.
DisjointPair naive_two_step(const Digraph& g, std::span<const double> w,
                            NodeId s, NodeId t,
                            std::span<const std::uint8_t> edge_enabled = {});

/// Allocation-free Suurballe for the per-request router path. Every solve is
/// cold: a full round-1 Dijkstra from s (no early exit at t, so every
/// reduced cost round 2 reads is defined), then round 2 over reduced costs.
/// Arcs of weight +inf never relax, in round 1 or round 2, which is how the
/// stable-arena auxiliary graphs disable arcs without a mask.
///
/// Tie rule. The round-1 path p1 is canonical: from t, repeatedly take the
/// *minimum-id* in-arc (u, v) that is exactly tight, dist[u] ⊕ w == dist[v]
/// in IEEE double arithmetic, until s. Round-1 labels are the unique least
/// fixpoint of d(v) = min over in-arcs of d(u) ⊕ w, independent of heap
/// order, so p1 — and with it the whole pair — is a pure function of the
/// graph's arc order, the weights, s and t.
///
/// Precondition: the tight subgraph holds no zero-weight cycle (true for the
/// builder's auxiliary graphs, whose link arcs carry positive costs, and for
/// positive physical link costs); a cycle trips a WDM_CHECK. Every caller,
/// graph::suurballe() and suurballe_node_disjoint() included, inherits it.
///
/// The heap, the round-1 labels and every round-2 array are retained across
/// solves and resized only when the graph's node or arc count changes; round
/// 2 cleans up through touched-lists rather than O(n + m) refills. A
/// steady-state solve touches the heap allocator zero times.
///
/// Not thread-safe; rwa::RouteScratch owns one per leased scratch.
class SuurballeEngine {
 public:
  SuurballeEngine() = default;
  SuurballeEngine(const SuurballeEngine&) = delete;
  SuurballeEngine& operator=(const SuurballeEngine&) = delete;

  /// Min-total-weight pair of edge-disjoint s -> t paths over nonnegative
  /// weights, or found == false. Output vectors inside `*out` are recycled
  /// (clear, keep capacity).
  void solve_into(const Digraph& g, std::span<const double> w, NodeId s,
                  NodeId t, DisjointPair* out);

  /// Convenience wrapper for tests; allocates the result.
  DisjointPair solve(const Digraph& g, std::span<const double> w, NodeId s,
                     NodeId t) {
    DisjointPair out;
    solve_into(g, w, s, t, &out);
    return out;
  }

 private:
  /// Sizes the scratch to the graph shape (no-op when unchanged).
  void bind(const Digraph& g);
  /// Round 2 over the canonical round-1 path; fills *out.
  void round_two(const Digraph& g, std::span<const double> w, NodeId s,
                 NodeId t, DisjointPair* out);

  NodeId n_ = -1;
  EdgeId m_ = -1;
  std::optional<QuadHeap> heap_;
  std::vector<double> dist_;  // round-1 labels

  // Round-2 scratch. The r2_* arrays and the flag arrays hold their clean
  // values (kInf / kInvalidEdge / 0) for every index NOT named by the
  // touched-lists below; round_two restores that invariant on every exit.
  std::vector<EdgeId> p1_edges_;
  std::vector<double> r2_dist_;
  std::vector<EdgeId> r2_pred_;
  std::vector<std::uint8_t> r2_pred_rev_;
  std::vector<NodeId> r2_touched_;    // nodes with a live r2_* entry
  std::vector<std::uint8_t> on_p1_;
  std::vector<std::uint8_t> in_flow_;
  std::vector<EdgeId> flow_cand_;     // arcs with a live in_flow_ entry
  std::vector<EdgeId> flow_edges_;
  std::vector<EdgeId> decomp_slot_;   // 2 out-slots per node
  std::vector<std::uint8_t> decomp_cnt_;
};

}  // namespace wdm::graph
