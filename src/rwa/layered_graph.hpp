// The Liang–Shen optimal semilightpath algorithm [13], the single-path engine
// the paper composes with Suurballe, in two interchangeable forms.
//
// The general form is the wavelength-layered graph. Each network node v
// expands into W in-copies and W out-copies, one pair per wavelength layer:
//   (v,λ)_in -> (v,λ')_out   conversion arc, weight c_v(λ,λ'), if allowed
//                            (λ = λ' is the free pass-through);
//   (u,λ)_out -> (v,λ)_in    traversal arc for link e=(u,v), weight w(e,λ),
//                            present iff λ ∈ Λ_avail(e).
// The in/out split enforces *one* conversion per node — without it Dijkstra
// could chain λa->λb->λc inside a node and undercut the c_v(λa,λc) the model
// charges. A super source fans into s's out-copies and t's in-copies fan
// into a super sink, both at zero weight.
//
// A shortest S->T path is exactly an optimal semilightpath: Eq. (1) decomposes
// over these arcs. Size: 2nW + 2 nodes, ≤ nW² + mW + 2W arcs — the source of
// the O(nW² + nW log(nW)) term in Theorems 1 and 3.
//
// The fast form is a path DP. When the enabled links form one simple s->t
// path e_1..e_k (the usual §3.3.2 refinement mask), the layered graph is a
// chain of k W×W stages and Dijkstra degenerates into a Viterbi recursion:
//   I_i[λ]  = A_{i-1}[λ] + w(e_i, λ)          (in-copy of v_i, A_0 ≡ 0)
//   A_i[λ'] = min_λ I_i[λ] + c_{v_i}(λ, λ')    (out-copy of v_i)
// O(k·W²) with no graph and no heap: Theorem 1's nW² term is paid on the
// k+1 path nodes only. optimal_semilightpath picks the DP whenever the mask
// qualifies and the layered graph otherwise; both sum the same doubles in
// the same order, so their costs agree exactly.
//
// Tie rule (both forms; DESIGN.md §10.4). Among equal-cost optima, walking
// back from t: the lowest tight λ on the last hop; then at each node keep
// the wavelength when the pass-through is tight, else the lowest tight λ.
// The layered form states it as "the lowest tight arc id": its arcs are
// built so that, into any copy, the hub arc comes first, then the
// pass-through, then conversions by ascending source λ, then traversal arcs
// by ascending link id (which picks among branches).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/path.hpp"
#include "wdm/semilightpath.hpp"

namespace wdm::rwa {

using graph::EdgeId;
using graph::NodeId;

struct LayeredGraph {
  graph::Digraph g;
  std::vector<double> w;
  /// Per-arc hop: traversal arcs carry {physical edge, λ}; conversion and
  /// hub arcs carry {kInvalidEdge, kInvalidWavelength}.
  std::vector<net::Hop> hop_of_arc;
  NodeId source_hub = graph::kInvalidNode;
  NodeId sink_hub = graph::kInvalidNode;

  /// Builds the layered graph of the *residual* network for a query s -> t.
  /// `link_enabled` optionally confines it to a physical subgraph (empty =
  /// all links) — this is how the projection step of §3.3.2 runs the solver
  /// inside the induced subgraphs G_1, G_2.
  static LayeredGraph build(const net::WdmNetwork& net, NodeId s, NodeId t,
                            std::span<const std::uint8_t> link_enabled = {});

  /// Overrides for non-residual wavelength views (e.g. shared-backup
  /// provisioning, where channels already held by compatible backups are
  /// usable at near-zero marginal cost).
  struct Overrides {
    /// Usable wavelengths on a link (default: net.available).
    std::function<net::WavelengthSet(EdgeId)> available;
    /// Traversal weight (default: net.weight). Called only for wavelengths
    /// the `available` override returned.
    std::function<double(EdgeId, net::Wavelength)> weight;
  };

  static LayeredGraph build_with(const net::WdmNetwork& net, NodeId s,
                                 NodeId t, const Overrides& overrides,
                                 std::span<const std::uint8_t> link_enabled = {});

  /// Shortest source_hub -> sink_hub path under the tie rule above:
  /// Dijkstra settles every copy up to d(sink), then the path is walked back
  /// from the sink along the lowest tight in-arc of each copy. Should that
  /// choice close a zero-cost loop (possible only with zero-cost links),
  /// the walk cuts the loop and finishes along Dijkstra's predecessor tree.
  graph::Path shortest_path() const;

  /// Maps a path in the layered graph back to a semilightpath.
  net::Semilightpath to_semilightpath(const graph::Path& p) const;
};

/// Reusable buffers of the path DP, so a warm router's refinement touches
/// the heap zero times.
struct PathDpScratch {
  std::vector<EdgeId> links;    // the s->t chain e_1..e_k
  std::vector<double> in_cost;  // row i: I_{i+1}[λ]
  std::vector<double> out_cost; // row i: A_{i+1}[λ]
};

/// The Liang–Shen algorithm: minimum-Eq.(1)-cost semilightpath from s to t in
/// the residual network (optionally confined to a physical subgraph).
/// Returns a not-found path when t is unreachable under the wavelength and
/// conversion constraints. Takes the path DP when the enabled links form a
/// simple s->t path, the layered graph otherwise; counts each under
/// `rwa.liang_shen.path_dp` / `rwa.liang_shen.layered`.
net::Semilightpath optimal_semilightpath(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    std::span<const std::uint8_t> link_enabled = {});

/// optimal_semilightpath writing into a recycled `*out` with the DP buffers
/// in `*scratch`: allocation-free on the DP path once both are warm.
void optimal_semilightpath_into(const net::WdmNetwork& net, NodeId s,
                                NodeId t,
                                std::span<const std::uint8_t> link_enabled,
                                PathDpScratch* scratch,
                                net::Semilightpath* out);

/// Liang–Shen over an overridden wavelength view (see
/// LayeredGraph::Overrides). Always takes the layered graph.
net::Semilightpath optimal_semilightpath_with(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    const LayeredGraph::Overrides& overrides,
    std::span<const std::uint8_t> link_enabled = {});

/// Cost of the optimal semilightpath, or +inf when none exists.
double optimal_semilightpath_cost(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    std::span<const std::uint8_t> link_enabled = {});

}  // namespace wdm::rwa
