// The paper's auxiliary graphs: G' (§3.3.1), G_c (§4.1) and G_rc (§4.2).
//
// All three share one topology recipe over the residual network:
//   * every usable physical link e = <u,v> contributes two *edge-nodes*,
//     u_out^e and v_in^e, joined by a "link arc" u_out^e -> v_in^e;
//   * at every node v, a "transit arc" v_in^e -> v_out^e' exists iff some
//     λ ∈ Λ_avail(e) can be converted at v into some λ' ∈ Λ_avail(e');
//   * hub nodes s' and t'' attach to s's outgoing / t's incoming edge-nodes
//     with zero-weight arcs.
// They differ in which links qualify and how arcs are weighted:
//   G'   — all links with Λ_avail ≠ ∅; link arc = mean traversal cost over
//          Λ_avail(e); transit arc = mean allowed conversion cost.
//   G_c  — only links with load U(e)/N(e) < ϑ; link arc = a^((U+1)/N) −
//          a^(U/N) (exponential load penalty); transit arcs weight 0.
//   G_rc — same ϑ filter as G_c; link arc = Σ_{λ∈Λ_avail} w(e,λ) / N(e)
//          (the paper's formula — note it divides by N(e), not |Λ_avail(e)|;
//          we implement it as written and flag the discrepancy here);
//          transit arc = mean allowed conversion cost, as in G'.
//
// Because each physical link owns exactly one link arc, edge-disjoint paths
// in the auxiliary graph project to edge-disjoint link sets in G — the fact
// Lemma 2 rests on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/path.hpp"
#include "graph/suurballe_warm.hpp"
#include "wdm/network.hpp"

namespace wdm::rwa {

enum class AuxWeighting {
  kCost,              // G'  (§3.3.1)
  kLoadExponential,   // G_c (§4.1)
  kCostLoadFiltered,  // G_rc (§4.2)
};

struct AuxGraphOptions {
  AuxWeighting weighting = AuxWeighting::kCost;
  /// Load threshold ϑ for G_c / G_rc: links with U(e)/N(e) >= ϑ are dropped.
  /// Ignored by G'.
  double theta = 1.0;
  /// Make the ϑ filter inclusive (keep links with load == ϑ). The paper's
  /// filter is strict; the inclusive variant lets the exact-threshold oracle
  /// probe "links of load <= L" without floating-point epsilon games.
  bool include_at_threshold = false;
  /// The exponent base a > 1 of the G_c load penalty.
  double load_base = 2.0;
  /// Optional physical-subgraph restriction composed with the other filters.
  std::span<const std::uint8_t> link_enabled = {};

  /// Ablation knob for G_rc: the paper's link weight divides the summed
  /// available-wavelength costs by N(e); `true` divides by |Λ_avail(e)|
  /// instead (a true mean, removing the discount partially-loaded links get
  /// under the paper's formula). See bench_ablations.
  bool grc_mean_over_available = false;

  /// Stable-arena ("universe") layout — the continental-scale hot path
  /// (ROADMAP item 4). Instead of compacting the graph to currently-usable
  /// links, the builder materializes every structural arc the topology can
  /// ever need — node ids computed from the link id (u_out^e = 2e,
  /// v_in^e = 2e+1), one link arc per physical link, one transit arc per
  /// (in-link, out-link) pair — finalizes the adjacency into CSR once, and
  /// thereafter every rebuild only *re-weights* arcs: disabled arcs carry
  /// +inf, and only arcs whose link_revision / conversion_revision moved
  /// (plus the O(deg) s'/t'' wiring on a query change) are touched. Weights
  /// of enabled arcs are bit-identical to the compacted layout, +inf arcs
  /// are unreachable under Dijkstra's strict-improvement relaxation, so
  /// shortest paths, Suurballe pairs, and projections agree with the
  /// compacted graph; node/arc *ids* differ, which is why this is opt-in
  /// rather than the default (structure-pinning tests use the compact form).
  bool stable_arena = false;

  /// Node-protection gadget (extension beyond the paper): route all transit
  /// at an intermediate physical node through a single hub arc, so
  /// edge-disjoint auxiliary paths are additionally *internally
  /// node-disjoint* in G — protecting single node failures as well (§1's
  /// stronger survivability class). The hub arc carries the node-level mean
  /// conversion cost (exact under the §3.3 full-conversion assumption;
  /// with restricted tables it relaxes per-pair convertibility to per-node).
  bool protect_nodes = false;
};

struct AuxGraph {
  graph::Digraph g;
  std::vector<double> w;
  graph::NodeId s_prime = graph::kInvalidNode;
  graph::NodeId t_second = graph::kInvalidNode;

  /// Physical link that each aux *arc* traverses (kInvalidEdge for transit
  /// and hub arcs).
  std::vector<graph::EdgeId> phys_edge_of_arc;
  /// Physical link each aux *node* is an edge-node of (kInvalidEdge for the
  /// two hubs); `is_in_node` distinguishes v_in^e from u_out^e.
  std::vector<graph::EdgeId> phys_edge_of_node;
  std::vector<std::uint8_t> is_in_node;

  int num_edge_nodes = 0;
  int num_link_arcs = 0;
  int num_transit_arcs = 0;

  /// Physical links traversed by an aux path, in order.
  std::vector<graph::EdgeId> project(const graph::Path& p) const;
  /// Allocation-free variant: clears `*out` (keeping capacity) and appends.
  void project_into(const graph::Path& p,
                    std::vector<graph::EdgeId>* out) const;

  /// Enabled-mask over physical links containing exactly the projection of
  /// `p` — the induced subgraph G_i of §3.3.2.
  std::vector<std::uint8_t> induced_link_mask(const graph::Path& p,
                                              graph::EdgeId num_links) const;
  /// Allocation-free variant: resizes `*out` to num_links and rewrites it.
  void induced_link_mask_into(const graph::Path& p, graph::EdgeId num_links,
                              std::vector<std::uint8_t>* out) const;
};

/// Builds the auxiliary graph for a query s -> t over the current residual
/// network. One-shot convenience wrapper over AuxGraphBuilder (cold arena,
/// cold caches) — the reference construction the differential tests compare
/// the reusable builder against.
AuxGraph build_aux_graph(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t, const AuxGraphOptions& opt = {});

/// Mean allowed conversion cost at v between Λ_avail(e) and Λ_avail(e'):
/// Σ c_v(λa, λb) / K_v over allowed pairs, K_v = number of allowed pairs.
/// Returns false when no pair is convertible (no transit arc).
bool mean_conversion_cost(const net::WdmNetwork& net, net::NodeId v,
                          graph::EdgeId in_link, graph::EdgeId out_link,
                          double* mean_out);

/// Reusable auxiliary-graph builder — the fast path for every per-request
/// construction of G' / G_c / G_rc (§3.3.1, §4.1, §4.2).
///
/// A cold build_aux_graph call pays twice on every request: it reallocates
/// the whole graph (nodes, arcs, weights, adjacency), and it redoes the
/// O(|Λ|²) wavelength-pair scan of mean_conversion_cost for every
/// (in-link, out-link) pair at every node. The builder keeps both across
/// calls:
///
///   * arena reuse — the AuxGraph (and its Digraph adjacency buffers),
///     edge-node maps, and weight vectors are cleared in place, so a
///     steady-state rebuild allocates nothing;
///   * conversion-mean caching — mean_conversion_cost results are memoized
///     per (node, in-link, out-link), validated against the network's
///     link_revision / conversion_revision counters (see WdmNetwork's
///     cache-invalidation contract): reserve/release/fail on a link only
///     invalidates the entries that touch it;
///   * per-link available-cost sums (the G' / G_rc link-arc weights) are
///     memoized the same way.
///
/// The produced graph is arc-for-arc identical — topology, node ids, arc
/// order, and bit-exact weights — to a cold build_aux_graph of the same
/// query, which tests/fuzz/test_fuzz_aux_builder.cpp enforces under
/// randomized churn.
///
/// Not thread-safe; route() implementations that may run concurrently lease
/// one from an AuxGraphBuilderPool instead of sharing an instance.
class AuxGraphBuilder {
 public:
  AuxGraphBuilder() = default;

  /// Builds the graph for (s, t) into the internal arena and returns it.
  /// The reference is invalidated by the next build/build_batch/take_last
  /// call. Binding follows the network's uid(): the first build against a
  /// different WdmNetwork object drops every cache automatically.
  const AuxGraph& build(const net::WdmNetwork& net, net::NodeId s,
                        net::NodeId t, const AuxGraphOptions& opt = {});

  /// Batch entry point: builds the graph for each (s, t) query in order and
  /// invokes `fn(i, aux)` after each. Arenas and conversion-mean caches stay
  /// warm across the whole batch even when `fn` reserves or releases
  /// wavelengths between queries — the provision_batch / simulator pattern.
  void build_batch(const net::WdmNetwork& net,
                   std::span<const std::pair<net::NodeId, net::NodeId>> queries,
                   const AuxGraphOptions& opt,
                   const std::function<void(std::size_t, const AuxGraph&)>& fn);

  /// Feasibility test for the θ searches of §4.1: true iff the graph
  /// build(net, s, t, opt) would produce holds two arc-disjoint s' -> t''
  /// paths, i.e. iff graph::suurballe on it finds a pair. Runs unweighted
  /// over the stable-arena universe: links pass the filter a build applies
  /// (mask, residual availability, the strict or inclusive ϑ filter of
  /// G_c / G_rc), transit arcs open through the revision-checked
  /// conversion-mean cache, and two BFS augmentations over the CSR decide
  /// whether a unit-capacity flow of 2 exists. No arc weight and no
  /// patch-log entry is written: a later stable-arena build, and a
  /// SuurballeEngine fed by patch_feed(), find the arena as the last build
  /// left it. A graph returned by an earlier *compact* build is replaced by
  /// the universe. Allocation-free once the universe is sized. The
  /// node-protection gadget is not supported (opt.protect_nodes must be
  /// false).
  bool has_disjoint_pair(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t, const AuxGraphOptions& opt);

  /// Moves the last-built graph out of the arena (donating its buffers);
  /// the next build starts from empty vectors but keeps the caches.
  AuxGraph take_last();

  /// Drops every cache and the network binding; arena capacity is kept.
  void invalidate();

  /// uid() of the network the caches are currently bound to (0 = unbound).
  /// AuxGraphBuilderPool keys leases on this so a caller gets back a builder
  /// whose caches are warm for *its* network, not whichever network leased
  /// last — the difference between a warm rebuild and a full rebind when
  /// replicas sharing one router interleave their networks (sim::replicate).
  std::uint64_t bound_uid() const { return net_uid_; }

  /// Monotone counter bumped every time the stable-arena *structure* (node
  /// and arc tables) is materialized. While it holds still, arc ids in the
  /// universe graph keep their meaning across builds — the invariant that
  /// lets a graph::SuurballeEngine keep warm trees against the arena. A
  /// caller pairing this builder with such an engine must invalidate() the
  /// engine whenever this value moves (RouteScratch does).
  std::uint64_t stable_structure_generation() const { return uni_gen_; }

  /// Dirty hints for a paired graph::SuurballeEngine: every weight the
  /// stable-arena path has patched since the current epoch began, as arc
  /// spans in append order. The epoch moves whenever span coverage lapses
  /// (structure rebuild, full repatch, log overflow) — consumers holding a
  /// cursor from an older epoch must fall back to a full diff. Capture the
  /// feed *after* build(); it then covers exactly the patches between the
  /// previous build and this one.
  graph::WeightPatchFeed patch_feed() const {
    return {patch_epoch_, std::span<const graph::WeightPatchSpan>(patch_log_)};
  }

  struct CacheStats {
    std::uint64_t builds = 0;
    std::uint64_t rebinds = 0;      // network changed -> full cache drop
    std::uint64_t conv_hits = 0;    // transit-arc mean served from cache
    std::uint64_t conv_misses = 0;  // recomputed via mean_conversion_cost
    std::uint64_t link_hits = 0;    // link-arc cost sum served from cache
    std::uint64_t link_misses = 0;
  };
  const CacheStats& stats() const { return stats_; }

 private:
  void bind(const net::WdmNetwork& net);
  /// Cached mean_conversion_cost for the transit pair at CSR slot `idx`.
  bool transit_mean(const net::WdmNetwork& net, net::NodeId v,
                    std::size_t idx, graph::EdgeId in_link,
                    graph::EdgeId out_link, double* mean_out);
  /// Cached Σ_{λ∈Λ_avail(e)} w(e, λ) and |Λ_avail(e)|.
  void link_costs(const net::WdmNetwork& net, graph::EdgeId e, double* sum,
                  int* count);

  // --- Stable-arena (universe) path; see AuxGraphOptions::stable_arena ----
  void build_stable(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                    const AuxGraphOptions& opt);
  /// Materializes the full structural arc table and finalizes it into CSR.
  void stable_structure(const net::WdmNetwork& net, bool protect);
  bool stable_usable(const net::WdmNetwork& net, graph::EdgeId e,
                     const AuxGraphOptions& opt) const;
  /// Re-weights link arc e plus its s'/t'' wiring; maintains counters.
  void stable_patch_link(const net::WdmNetwork& net, graph::EdgeId e,
                         net::NodeId s, net::NodeId t,
                         const AuxGraphOptions& opt);
  /// Re-weights every transit structure at v (pair arcs; hub + fan arcs in
  /// protect mode); maintains the transit-arc counter.
  void stable_patch_node(const net::WdmNetwork& net, net::NodeId v,
                         net::NodeId s, net::NodeId t,
                         const AuxGraphOptions& opt);

  static constexpr std::uint64_t kNoRevision = ~std::uint64_t{0};

  // Network binding: caches are valid only for this exact object.
  std::uint64_t net_uid_ = 0;
  graph::NodeId bound_nodes_ = -1;
  graph::EdgeId bound_links_ = -1;

  // Transit-pair cache, CSR-indexed: the pair (i-th in-edge, j-th out-edge)
  // of node v lives at pair_base_[v] + i * out_degree(v) + j.
  std::vector<std::size_t> pair_base_;
  std::vector<std::uint64_t> pair_in_rev_;
  std::vector<std::uint64_t> pair_out_rev_;
  std::vector<std::uint64_t> pair_conv_rev_;
  std::vector<std::uint8_t> pair_has_;
  std::vector<double> pair_mean_;

  // Per-link available-cost cache.
  std::vector<std::uint64_t> link_rev_seen_;
  std::vector<double> link_sum_;
  std::vector<int> link_cnt_;

  // Arena.
  AuxGraph aux_;
  std::vector<graph::NodeId> out_node_;
  std::vector<graph::NodeId> in_node_;

  // Stable-arena state. Structure (node/arc ids) is a pure function of the
  // bound topology and the protect flag; weights are patched per build.
  bool uni_ready_ = false;
  bool uni_protect_ = false;
  std::uint64_t uni_gen_ = 0;       // bumped on every structure rebuild
  // Weight-patch log for engine dirty hints (see patch_feed()). Bounded by
  // patch_log_cap_: appends past it set the overflow flag and build_stable
  // ends the epoch, so the reserve in stable_structure is never exceeded.
  void log_patch(graph::EdgeId begin, graph::EdgeId count);
  std::vector<graph::WeightPatchSpan> patch_log_;
  std::uint64_t patch_epoch_ = 0;
  std::size_t patch_log_cap_ = 0;
  bool patch_overflow_ = false;
  bool uni_weights_valid_ = false;  // false until the first weight patch
  bool uni_had_mask_ = false;       // last build used a link_enabled mask
  AuxGraphOptions uni_opt_;         // options of the last weight patch
  net::NodeId uni_s_ = graph::kInvalidNode;
  net::NodeId uni_t_ = graph::kInvalidNode;
  std::uint64_t uni_net_rev_ = 0;   // revision() at last patch (fast skip)
  std::vector<std::uint64_t> uni_link_rev_;  // per-link revision last seen
  std::vector<std::uint64_t> uni_conv_rev_;  // per-node conversion revision
  std::vector<std::uint8_t> uni_usable_;     // usable(e) at last patch
  std::vector<int> uni_node_transit_;   // finite transit arcs contributed by v
  std::vector<graph::EdgeId> uni_fan_in_arc_;   // protect: arc v_in^e -> hub
  std::vector<graph::EdgeId> uni_fan_out_arc_;  // protect: arc hub -> u_out^e
  graph::EdgeId uni_hub_arc_base_ = 0;  // protect: hub arc of v = base + v
  graph::EdgeId uni_sprime_arc_base_ = 0;  // s' arc of link e = base + e
  graph::EdgeId uni_tsec_arc_base_ = 0;    // t'' arc of link e = base + e
  std::vector<std::uint8_t> uni_node_mark_;   // scratch: dedup changed nodes
  std::vector<net::NodeId> uni_changed_nodes_;  // scratch

  /// One BFS of has_disjoint_pair's augmentation, from s' over the residual
  /// graph; on reaching t'' returns true with the path's arcs in feas_pred_
  /// (the first BFS uses forward arcs only).
  bool feasibility_bfs(const net::WdmNetwork& net, net::NodeId s,
                       net::NodeId t);
  // has_disjoint_pair scratch, sized with the universe. feas_flow_in_[v] is
  // the first augmenting path's arc into aux node v (kInvalidEdge off it);
  // feas_seen_ holds per-BFS stamps so no pass clears an O(n) array.
  std::vector<std::uint8_t> feas_usable_;      // per link: passes the filter
  std::vector<std::uint32_t> feas_seen_;       // per aux node: visit stamp
  std::vector<graph::EdgeId> feas_pred_;       // per aux node: arc reached by
  std::vector<graph::EdgeId> feas_flow_in_;
  std::vector<graph::NodeId> feas_queue_;
  std::vector<graph::NodeId> feas_path_;       // nodes with feas_flow_in_ set
  std::uint32_t feas_stamp_ = 0;

  CacheStats stats_;
};

/// Thread-safe LIFO pool of builders. Router::route() is const but may run
/// concurrently (sim::replicate's parallel Monte Carlo); each call leases a
/// builder for its duration. A single-threaded caller therefore always gets
/// the same warm builder back, while concurrent callers each get their own.
class AuxGraphBuilderPool {
 public:
  class Lease {
   public:
    Lease(AuxGraphBuilderPool* pool, std::unique_ptr<AuxGraphBuilder> builder)
        : pool_(pool), builder_(std::move(builder)) {}
    Lease(Lease&& other) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    AuxGraphBuilder& operator*() { return *builder_; }
    AuxGraphBuilder* operator->() { return builder_.get(); }
    AuxGraphBuilder* get() { return builder_.get(); }

   private:
    AuxGraphBuilderPool* pool_;
    std::unique_ptr<AuxGraphBuilder> builder_;
  };

  AuxGraphBuilderPool() = default;
  AuxGraphBuilderPool(const AuxGraphBuilderPool&) = delete;
  AuxGraphBuilderPool& operator=(const AuxGraphBuilderPool&) = delete;

  Lease lease();
  /// Keyed lease: prefers an idle builder already bound to `net` (warm
  /// caches), then an unbound one, then LIFO; allocates only when the pool
  /// is empty. Concurrent callers over distinct networks (replicas sharing
  /// one router) each keep their own warm builder instead of thrashing each
  /// other's caches through rebinds.
  Lease lease(const net::WdmNetwork& net);
  /// Builders currently parked in the pool (observability for tests).
  std::size_t idle_count() const;

 private:
  friend class Lease;
  void put(std::unique_ptr<AuxGraphBuilder> builder);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<AuxGraphBuilder>> idle_;
};

}  // namespace wdm::rwa
