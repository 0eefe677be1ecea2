#include "fuzz/compact_aux.hpp"

#include <cmath>
#include <vector>

#include "support/check.hpp"

namespace wdm::fuzz {

using graph::EdgeId;
using graph::NodeId;

rwa::AuxGraph build_compact_aux_graph(const net::WdmNetwork& net,
                                      net::NodeId s, net::NodeId t,
                                      const rwa::AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  WDM_CHECK(pg.valid_node(s) && pg.valid_node(t));
  WDM_CHECK(s != t);
  const auto m = static_cast<std::size_t>(pg.num_edges());
  WDM_CHECK(opt.link_enabled.empty() || opt.link_enabled.size() == m);

  rwa::AuxGraph aux;
  // A link is usable when it survives the caller's mask, still has available
  // wavelengths (residual network membership), and — for G_c / G_rc — its
  // load is below ϑ (strictly, unless the filter is inclusive).
  auto usable = [&](EdgeId e) {
    if (!opt.link_enabled.empty() &&
        !opt.link_enabled[static_cast<std::size_t>(e)]) {
      return false;
    }
    if (net.available(e).empty()) return false;
    if (opt.weighting != rwa::AuxWeighting::kCost) {
      const double load = net.link_load(e);
      if (opt.include_at_threshold ? load > opt.theta : load >= opt.theta) {
        return false;
      }
    }
    return true;
  };
  // Σ_{λ∈Λ_avail(e)} w(e, λ), accumulated in ascending λ.
  auto available_cost_sum = [&](EdgeId e) {
    double sum = 0.0;
    net.available(e).for_each(
        [&](net::Wavelength l) { sum += net.weight(e, l); });
    return sum;
  };

  // Edge-nodes: out_node[e] = u_out^e, in_node[e] = v_in^e.
  std::vector<NodeId> out_node(m, graph::kInvalidNode);
  std::vector<NodeId> in_node(m, graph::kInvalidNode);
  auto new_node = [&](EdgeId e, bool is_in) {
    const NodeId v = aux.g.add_node();
    aux.phys_edge_of_node.push_back(e);
    aux.is_in_node.push_back(is_in ? 1 : 0);
    return v;
  };
  for (EdgeId e = 0; e < pg.num_edges(); ++e) {
    if (!usable(e)) continue;
    out_node[static_cast<std::size_t>(e)] = new_node(e, false);
    in_node[static_cast<std::size_t>(e)] = new_node(e, true);
    aux.num_edge_nodes += 2;
  }
  aux.s_prime = new_node(graph::kInvalidEdge, false);
  aux.t_second = new_node(graph::kInvalidEdge, true);

  auto add_arc = [&](NodeId a, NodeId b, double weight, EdgeId phys) {
    aux.g.add_edge(a, b);
    aux.w.push_back(weight);
    aux.phys_edge_of_arc.push_back(phys);
  };
  const bool zero_transit =
      opt.weighting == rwa::AuxWeighting::kLoadExponential;

  // Link arcs u_out^e -> v_in^e.
  for (EdgeId e = 0; e < pg.num_edges(); ++e) {
    if (out_node[static_cast<std::size_t>(e)] == graph::kInvalidNode) continue;
    double weight = 0.0;
    switch (opt.weighting) {
      case rwa::AuxWeighting::kCost:
        weight = available_cost_sum(e) / net.available(e).count();
        break;
      case rwa::AuxWeighting::kLoadExponential: {
        const double u = net.usage(e);
        const double cap = net.capacity(e);
        weight = std::pow(opt.load_base, (u + 1.0) / cap) -
                 std::pow(opt.load_base, u / cap);
        break;
      }
      case rwa::AuxWeighting::kCostLoadFiltered:
        weight = available_cost_sum(e) /
                 (opt.grc_mean_over_available ? net.available(e).count()
                                              : net.capacity(e));
        break;
    }
    add_arc(out_node[static_cast<std::size_t>(e)],
            in_node[static_cast<std::size_t>(e)], weight, e);
    ++aux.num_link_arcs;
  }

  // Transit arcs v_in^e -> v_out^e' when some available conversion exists.
  for (NodeId v = 0; v < pg.num_nodes(); ++v) {
    const auto in_edges = pg.in_edges(v);
    const auto out_edges = pg.out_edges(v);
    if (opt.protect_nodes && v != s && v != t) {
      // Node gadget: every transit at v funnels through one hub arc, so two
      // arc-disjoint auxiliary paths are internally node-disjoint in G.
      double sum = 0.0;
      int pairs = 0;
      for (const EdgeId e : in_edges) {
        if (in_node[static_cast<std::size_t>(e)] == graph::kInvalidNode) {
          continue;
        }
        for (const EdgeId e2 : out_edges) {
          if (out_node[static_cast<std::size_t>(e2)] == graph::kInvalidNode) {
            continue;
          }
          double mean = 0.0;
          if (rwa::mean_conversion_cost(net, v, e, e2, &mean)) {
            sum += mean;
            ++pairs;
          }
        }
      }
      if (pairs == 0) continue;  // v cannot be transited at all
      const NodeId hub_in = new_node(graph::kInvalidEdge, true);
      const NodeId hub_out = new_node(graph::kInvalidEdge, false);
      add_arc(hub_in, hub_out, zero_transit ? 0.0 : sum / pairs,
              graph::kInvalidEdge);
      ++aux.num_transit_arcs;
      for (const EdgeId e : in_edges) {
        const NodeId a = in_node[static_cast<std::size_t>(e)];
        if (a != graph::kInvalidNode) {
          add_arc(a, hub_in, 0.0, graph::kInvalidEdge);
        }
      }
      for (const EdgeId e2 : out_edges) {
        const NodeId b = out_node[static_cast<std::size_t>(e2)];
        if (b != graph::kInvalidNode) {
          add_arc(hub_out, b, 0.0, graph::kInvalidEdge);
        }
      }
      continue;
    }
    for (const EdgeId e : in_edges) {
      const NodeId a = in_node[static_cast<std::size_t>(e)];
      if (a == graph::kInvalidNode) continue;
      for (const EdgeId e2 : out_edges) {
        const NodeId b = out_node[static_cast<std::size_t>(e2)];
        if (b == graph::kInvalidNode) continue;
        double mean = 0.0;
        if (!rwa::mean_conversion_cost(net, v, e, e2, &mean)) continue;
        add_arc(a, b, zero_transit ? 0.0 : mean, graph::kInvalidEdge);
        ++aux.num_transit_arcs;
      }
    }
  }

  // Hub arcs s' -> u_out^e for links out of s, v_in^e -> t'' for links into t.
  for (const EdgeId e : pg.out_edges(s)) {
    const NodeId b = out_node[static_cast<std::size_t>(e)];
    if (b != graph::kInvalidNode) {
      add_arc(aux.s_prime, b, 0.0, graph::kInvalidEdge);
    }
  }
  for (const EdgeId e : pg.in_edges(t)) {
    const NodeId a = in_node[static_cast<std::size_t>(e)];
    if (a != graph::kInvalidNode) {
      add_arc(a, aux.t_second, 0.0, graph::kInvalidEdge);
    }
  }
  return aux;
}

}  // namespace wdm::fuzz
