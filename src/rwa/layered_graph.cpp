#include "rwa/layered_graph.hpp"

#include <algorithm>

#include "graph/heaps.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

namespace {

bool link_on(std::span<const std::uint8_t> mask, EdgeId e) {
  return mask.empty() || mask[static_cast<std::size_t>(e)] != 0;
}

/// True iff the enabled links form one simple s -> t path; fills `*links`
/// with it. Walks from s along each node's only enabled out-link: a branch
/// or a dead end fails at once, and a walk that uses up every enabled link
/// without reaching t has entered a cycle (successors are unique, so a
/// revisited node repeats forever). Reaching t with every enabled link used
/// means the links are exactly one path with no node repeated.
bool enabled_links_form_path(const graph::Digraph& pg, NodeId s, NodeId t,
                             std::span<const std::uint8_t> mask,
                             std::vector<EdgeId>* links) {
  links->clear();
  const auto enabled = static_cast<std::size_t>(
      mask.empty() ? pg.num_edges()
                   : std::count_if(mask.begin(), mask.end(),
                                   [](std::uint8_t m) { return m != 0; }));
  for (NodeId u = s; u != t;) {
    if (links->size() == enabled) return false;
    EdgeId next = graph::kInvalidEdge;
    for (EdgeId e : pg.out_edges(u)) {
      if (!link_on(mask, e)) continue;
      if (next != graph::kInvalidEdge) return false;
      next = e;
    }
    if (next == graph::kInvalidEdge) return false;
    links->push_back(next);
    u = pg.head(next);
  }
  return links->size() == enabled;
}

/// The Viterbi recursion of the header over the chain in `sc->links`, with
/// the tie rule applied on the way back. Sums are formed exactly as the
/// layered graph's Dijkstra forms them, so the optimum is the same double.
void path_dp(const net::WdmNetwork& net, PathDpScratch* sc,
             net::Semilightpath* out) {
  const auto& pg = net.graph();
  const auto W = static_cast<std::size_t>(net.W());
  const std::size_t k = sc->links.size();
  sc->in_cost.assign(k * W, graph::kInf);
  sc->out_cost.assign(k * W, graph::kInf);
  out->hops.clear();
  out->found = false;

  // Hop 1 leaves s's out-copies at distance 0.
  const EdgeId e1 = sc->links[0];
  double* in = sc->in_cost.data();
  std::uint64_t reach = 0;  // λ with a finite in-cost on the current hop
  net.available(e1).for_each([&](net::Wavelength l) {
    in[l] = 0.0 + net.weight(e1, l);
    reach |= std::uint64_t{1} << l;
  });
  for (std::size_t i = 1; i < k && reach != 0; ++i) {
    const EdgeId e = sc->links[i];
    const net::ConversionTable& conv = net.conversion(pg.tail(e));
    const double* prev = sc->in_cost.data() + (i - 1) * W;
    double* conv_out = sc->out_cost.data() + (i - 1) * W;
    in = sc->in_cost.data() + i * W;
    const net::WavelengthSet from = net::WavelengthSet::from_bits(reach);
    reach = 0;
    // Only λ' usable on the next hop can matter, so only those are solved.
    net.available(e).for_each([&](net::Wavelength b) {
      double best = graph::kInf;
      from.for_each([&](net::Wavelength a) {
        if (!conv.allowed(a, b)) return;
        const double c = prev[a] + conv.cost_unchecked(a, b);
        if (c < best) best = c;
      });
      if (best == graph::kInf) return;
      conv_out[b] = best;
      in[b] = best + net.weight(e, b);
      reach |= std::uint64_t{1} << b;
    });
  }
  if (reach == 0) return;

  // Walk back: the lowest tight λ into t, then keep λ where the
  // pass-through is tight, else the lowest tight source λ.
  const double* last = sc->in_cost.data() + (k - 1) * W;
  double best = graph::kInf;
  for (std::size_t l = 0; l < W; ++l) best = std::min(best, last[l]);
  net::Wavelength lambda = 0;
  while (last[lambda] != best) ++lambda;
  out->hops.resize(k);
  out->hops[k - 1] = net::Hop{sc->links[k - 1], lambda};
  for (std::size_t i = k - 1; i-- > 0;) {
    const net::ConversionTable& conv = net.conversion(pg.head(sc->links[i]));
    const double* prev = sc->in_cost.data() + i * W;
    const double target = sc->out_cost[i * W + static_cast<std::size_t>(lambda)];
    const net::Wavelength b = lambda;
    if (prev[b] + conv.cost_unchecked(b, b) != target) {
      lambda = 0;
      while (!conv.allowed(lambda, b) ||
             prev[lambda] + conv.cost_unchecked(lambda, b) != target) {
        ++lambda;
      }
    }
    out->hops[i] = net::Hop{sc->links[i], lambda};
  }
  out->found = true;
}

}  // namespace

LayeredGraph LayeredGraph::build(const net::WdmNetwork& net, NodeId s,
                                 NodeId t,
                                 std::span<const std::uint8_t> link_enabled) {
  return build_with(net, s, t, Overrides{}, link_enabled);
}

LayeredGraph LayeredGraph::build_with(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    const Overrides& overrides, std::span<const std::uint8_t> link_enabled) {
  const auto& pg = net.graph();
  WDM_CHECK(pg.valid_node(s) && pg.valid_node(t));
  WDM_CHECK(link_enabled.empty() ||
            link_enabled.size() == static_cast<std::size_t>(pg.num_edges()));
  const int W = net.W();
  const NodeId n = pg.num_nodes();

  // Active-node compaction: with a confining mask (the §3.3.2 refinement
  // runs inside an induced subgraph of a handful of links), only nodes
  // incident to an enabled link — plus the query endpoints — can appear on
  // any S->T path. Skipping the rest drops the n·W² conversion-arc term to
  // (active)·W², which is what makes per-request refinement affordable at
  // continental scale. Unmasked builds keep the dense layout (every node is
  // active anyway). Compaction renumbers copies but keeps the relative order
  // of every copy's in-arcs, so the tie rule picks the same path either way.
  const bool compacted = !link_enabled.empty();
  std::vector<NodeId> layer_of;  // physical node -> layer slot
  NodeId n_active = n;
  if (compacted) {
    layer_of.assign(static_cast<std::size_t>(n), graph::kInvalidNode);
    n_active = 0;
    auto touch = [&](NodeId v) {
      if (layer_of[static_cast<std::size_t>(v)] == graph::kInvalidNode) {
        layer_of[static_cast<std::size_t>(v)] = n_active++;
      }
    };
    touch(s);
    touch(t);
    for (EdgeId e = 0; e < pg.num_edges(); ++e) {
      if (!link_on(link_enabled, e)) continue;
      touch(pg.tail(e));
      touch(pg.head(e));
    }
  }
  const auto slot = [&](NodeId v) {
    return compacted ? layer_of[static_cast<std::size_t>(v)] : v;
  };

  LayeredGraph lg;
  // Layout: in-copy of (v, λ) = 2*(slot(v)*W + λ), out-copy = +1.
  lg.g = graph::Digraph(2 * n_active * W + 2);
  lg.source_hub = 2 * n_active * W;
  lg.sink_hub = 2 * n_active * W + 1;
  auto in_copy = [&](NodeId v, net::Wavelength l) {
    return 2 * (slot(v) * W + l);
  };
  auto out_copy = [&](NodeId v, net::Wavelength l) {
    return 2 * (slot(v) * W + l) + 1;
  };
  const net::Hop no_hop{};
  auto add = [&](NodeId a, NodeId b, double weight, net::Hop hop) {
    lg.g.add_edge(a, b);
    lg.w.push_back(weight);
    lg.hop_of_arc.push_back(hop);
  };

  // Arc order is the tie rule (see the header): hubs first, then per
  // out-copy the pass-through before conversions by ascending source λ,
  // then traversal arcs by link id.
  for (net::Wavelength l = 0; l < W; ++l) {
    add(lg.source_hub, out_copy(s, l), 0.0, no_hop);
    add(in_copy(t, l), lg.sink_hub, 0.0, no_hop);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (compacted && layer_of[static_cast<std::size_t>(v)] == graph::kInvalidNode) {
      continue;
    }
    const auto& table = net.conversion(v);
    for (net::Wavelength b = 0; b < W; ++b) {
      add(in_copy(v, b), out_copy(v, b), 0.0, no_hop);
      for (net::Wavelength a = 0; a < W; ++a) {
        if (a != b && table.allowed(a, b)) {
          add(in_copy(v, a), out_copy(v, b), table.cost(a, b), no_hop);
        }
      }
    }
  }
  // Traversal arcs over the (possibly overridden) residual view.
  for (EdgeId e = 0; e < pg.num_edges(); ++e) {
    if (!link_on(link_enabled, e)) continue;
    const NodeId u = pg.tail(e);
    const NodeId v = pg.head(e);
    const net::WavelengthSet usable =
        overrides.available ? overrides.available(e) : net.available(e);
    usable.for_each([&](net::Wavelength l) {
      const double w_el =
          overrides.weight ? overrides.weight(e, l) : net.weight(e, l);
      add(out_copy(u, l), in_copy(v, l), w_el, net::Hop{e, l});
    });
  }
  return lg;
}

graph::Path LayeredGraph::shortest_path() const {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> dist(n, graph::kInf);
  std::vector<EdgeId> pred(n, graph::kInvalidEdge);
  graph::QuadHeap heap(n);
  dist[static_cast<std::size_t>(source_hub)] = 0.0;
  heap.push(static_cast<std::size_t>(source_hub), 0.0);
  // Settle every copy with distance <= d(sink): the tight in-arcs the walk
  // below compares must all carry final distances.
  double bound = graph::kInf;
  while (!heap.empty()) {
    const auto [uid, du] = heap.pop_min();
    if (du > bound) break;
    const auto u = static_cast<NodeId>(uid);
    if (u == sink_hub) bound = du;
    for (EdgeId a : g.out_edges(u)) {
      const auto v = static_cast<std::size_t>(g.head(a));
      const double dv = du + w[static_cast<std::size_t>(a)];
      if (dv < dist[v]) {
        dist[v] = dv;
        pred[v] = a;
        heap.push_or_decrease(v, dv);
      }
    }
  }
  graph::Path p;
  if (bound == graph::kInf) return p;

  // Walk back from the sink; `at` holds each walked copy's position.
  std::vector<int> at(n, -1);
  std::vector<NodeId> walk{sink_hub};
  at[static_cast<std::size_t>(sink_hub)] = 0;
  bool tree_only = false;
  for (NodeId v = sink_hub; v != source_hub;) {
    const double dv = dist[static_cast<std::size_t>(v)];
    EdgeId arc = pred[static_cast<std::size_t>(v)];
    if (!tree_only) {
      for (EdgeId a : g.in_edges(v)) {
        if (dist[static_cast<std::size_t>(g.tail(a))] +
                w[static_cast<std::size_t>(a)] ==
            dv) {
          if (at[static_cast<std::size_t>(g.tail(a))] >= 0) {
            tree_only = true;  // would close a zero-cost loop
          } else {
            arc = a;
          }
          break;
        }
      }
    }
    WDM_DCHECK(arc != graph::kInvalidEdge);
    const NodeId u = g.tail(arc);
    if (at[static_cast<std::size_t>(u)] >= 0) {
      // Tree arcs run to strictly earlier-settled copies, so cutting back
      // to u and continuing along the tree terminates.
      while (walk.back() != u) {
        at[static_cast<std::size_t>(walk.back())] = -1;
        walk.pop_back();
        p.edges.pop_back();
      }
    } else {
      at[static_cast<std::size_t>(u)] = static_cast<int>(walk.size());
      walk.push_back(u);
      p.edges.push_back(arc);
    }
    v = u;
  }
  std::reverse(p.edges.begin(), p.edges.end());
  p.cost = bound;
  p.found = true;
  return p;
}

net::Semilightpath LayeredGraph::to_semilightpath(const graph::Path& p) const {
  net::Semilightpath slp;
  if (!p.found) return slp;
  slp.found = true;
  for (EdgeId arc : p.edges) {
    const net::Hop& h = hop_of_arc[static_cast<std::size_t>(arc)];
    if (h.edge != graph::kInvalidEdge) slp.hops.push_back(h);
  }
  return slp;
}

net::Semilightpath optimal_semilightpath(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    std::span<const std::uint8_t> link_enabled) {
  PathDpScratch scratch;
  net::Semilightpath out;
  optimal_semilightpath_into(net, s, t, link_enabled, &scratch, &out);
  return out;
}

void optimal_semilightpath_into(const net::WdmNetwork& net, NodeId s,
                                NodeId t,
                                std::span<const std::uint8_t> link_enabled,
                                PathDpScratch* scratch,
                                net::Semilightpath* out) {
  WDM_CHECK_MSG(s != t, "semilightpath endpoints must differ");
  const auto& pg = net.graph();
  WDM_CHECK(pg.valid_node(s) && pg.valid_node(t));
  WDM_CHECK(link_enabled.empty() ||
            link_enabled.size() == static_cast<std::size_t>(pg.num_edges()));
  if (enabled_links_form_path(pg, s, t, link_enabled, &scratch->links)) {
    WDM_TEL_COUNT("rwa.liang_shen.path_dp");
    path_dp(net, scratch, out);
    return;
  }
  WDM_TEL_COUNT("rwa.liang_shen.layered");
  const LayeredGraph lg = LayeredGraph::build(net, s, t, link_enabled);
  *out = lg.to_semilightpath(lg.shortest_path());
}

net::Semilightpath optimal_semilightpath_with(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    const LayeredGraph::Overrides& overrides,
    std::span<const std::uint8_t> link_enabled) {
  WDM_CHECK_MSG(s != t, "semilightpath endpoints must differ");
  const LayeredGraph lg =
      LayeredGraph::build_with(net, s, t, overrides, link_enabled);
  return lg.to_semilightpath(lg.shortest_path());
}

double optimal_semilightpath_cost(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    std::span<const std::uint8_t> link_enabled) {
  const net::Semilightpath p = optimal_semilightpath(net, s, t, link_enabled);
  return p.found ? p.cost(net) : graph::kInf;
}

}  // namespace wdm::rwa
