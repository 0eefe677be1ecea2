#include "fuzz/generator.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"
#include "topology/network_builder.hpp"
#include "topology/topologies.hpp"

namespace wdm::fuzz {

namespace {

net::WavelengthSet random_installed(int W, support::Rng& rng) {
  net::WavelengthSet s;
  for (net::Wavelength l = 0; l < W; ++l) {
    if (rng.bernoulli(0.75)) s.insert(l);
  }
  if (s.empty()) s.insert(static_cast<net::Wavelength>(rng.uniform_int(0, W - 1)));
  return s;
}

/// Random per-node conversion capability. In the Theorem 2 regime only full
/// uniform tables with cost <= `max_conv_cost` are drawn.
void assign_conversions(net::WdmNetwork& n, support::Rng& rng,
                        bool theorem2_only, double max_conv_cost) {
  const int W = n.W();
  for (net::NodeId v = 0; v < n.num_nodes(); ++v) {
    if (theorem2_only) {
      n.set_conversion(
          v, net::ConversionTable::full(W, rng.uniform(0.0, max_conv_cost)));
      continue;
    }
    switch (rng.uniform_int(0, 3)) {
      case 0:
        n.set_conversion(
            v, net::ConversionTable::full(W, rng.uniform(0.0, max_conv_cost)));
        break;
      case 1:
        n.set_conversion(v, net::ConversionTable::none(W));
        break;
      case 2:
        n.set_conversion(
            v, net::ConversionTable::limited_range(
                   W, static_cast<int>(rng.uniform_int(1, std::max(1, W - 1))),
                   rng.uniform(0.0, max_conv_cost)));
        break;
      default: {
        // Sparse general table: a random subset of pairs allowed.
        net::ConversionTable t = net::ConversionTable::none(W);
        for (net::Wavelength a = 0; a < W; ++a) {
          for (net::Wavelength b = 0; b < W; ++b) {
            if (a != b && rng.bernoulli(0.4)) {
              t.set(a, b, rng.uniform(0.0, max_conv_cost));
            }
          }
        }
        n.set_conversion(v, std::move(t));
        break;
      }
    }
  }
}

/// Adds a link with either uniform or per-wavelength random costs.
void add_random_link(net::WdmNetwork& n, net::NodeId u, net::NodeId v, int W,
                     support::Rng& rng, bool uniform_costs, double lo,
                     double hi) {
  const net::WavelengthSet inst = random_installed(W, rng);
  if (uniform_costs) {
    n.add_link(u, v, inst, rng.uniform(lo, hi));
  } else {
    std::vector<double> costs(static_cast<std::size_t>(W), 0.0);
    for (auto& c : costs) c = rng.uniform(lo, hi);
    n.add_link(u, v, inst, costs);
  }
}

/// Background reservations + occasional fiber cut: the residual network the
/// routers actually face is rarely pristine.
void apply_residual_state(net::WdmNetwork& n, support::Rng& rng,
                          const GenOptions& opt) {
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.installed(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(opt.preload_probability)) n.reserve(e, l);
    });
  }
  if (n.num_links() > 2 && rng.bernoulli(opt.failure_probability)) {
    n.set_link_failed(
        static_cast<graph::EdgeId>(rng.uniform_int(0, n.num_links() - 1)),
        true);
  }
}

/// The classic greedy trap: the cheapest s->t path s->a->b->t uses links both
/// disjoint paths need; removing it disconnects the second search while the
/// optimal pair {s->a->t, s->b->t} survives. Decoy nodes hang off the core so
/// the shrinker has something to remove.
net::WdmNetwork trap_network(int W, support::Rng& rng, bool uniform_costs,
                             int decoys) {
  net::WdmNetwork n(4 + decoys, W);
  // cheap stays >= 1 so conversion costs (drawn below 1) never exceed an
  // incident link cost — the Theorem 2 regime must survive this family.
  const double cheap = rng.uniform(1.0, 2.0);
  const double dear = rng.uniform(4.0, 8.0);
  const net::NodeId s = 0, a = 1, b = 2, t = 3;
  auto link = [&](net::NodeId u, net::NodeId v, double c) {
    if (uniform_costs) {
      n.add_link(u, v, random_installed(W, rng), c);
    } else {
      std::vector<double> costs(static_cast<std::size_t>(W), 0.0);
      for (auto& x : costs) x = c * rng.uniform(0.8, 1.2);
      n.add_link(u, v, random_installed(W, rng), costs);
    }
  };
  link(s, a, cheap);
  link(a, b, cheap);
  link(b, t, cheap);
  link(s, b, dear);
  link(a, t, dear);
  for (int d = 0; d < decoys; ++d) {
    const net::NodeId v = static_cast<net::NodeId>(4 + d);
    link(static_cast<net::NodeId>(rng.uniform_int(0, 3)), v, dear);
    link(v, static_cast<net::NodeId>(rng.uniform_int(0, 3)), dear);
  }
  return n;
}

/// Barbell: two triangles joined by a single duplex fiber — s and t on
/// opposite sides are not 2-edge-connected, so no protected route exists.
net::WdmNetwork bridge_network(int W, support::Rng& rng, bool uniform_costs) {
  net::WdmNetwork n(6, W);
  auto duplex = [&](net::NodeId u, net::NodeId v) {
    add_random_link(n, u, v, W, rng, uniform_costs, 1.0, 10.0);
    add_random_link(n, v, u, W, rng, uniform_costs, 1.0, 10.0);
  };
  duplex(0, 1);
  duplex(1, 2);
  duplex(2, 0);
  duplex(3, 4);
  duplex(4, 5);
  duplex(5, 3);
  duplex(2, 3);  // the bridge
  return n;
}

/// SRLG trap: the min-cost edge-disjoint pair {s->a->t, s->b->t} rides a
/// shared conduit (a->t and b->t are one SRLG), so the SRLG-aware search
/// must refuse Suurballe's answer and fall through to the conflict-set stage
/// to find the dearer detour via c. Nodes: s=0, a=1, b=2, c=3, t=4.
net::WdmNetwork srlg_trap_network(int W, support::Rng& rng,
                                  bool uniform_costs) {
  net::WdmNetwork n(5, W);
  const double cheap = rng.uniform(1.0, 2.0);
  const double dear = rng.uniform(4.0, 8.0);
  auto link = [&](net::NodeId u, net::NodeId v, double c) {
    add_random_link(n, u, v, W, rng, uniform_costs, c, c);
  };
  link(0, 1, cheap);  // edge 0: s->a
  link(1, 4, cheap);  // edge 1: a->t   } one conduit
  link(0, 2, cheap);  // edge 2: s->b
  link(2, 4, cheap);  // edge 3: b->t   } one conduit
  link(0, 3, dear);   // edge 4: s->c
  link(3, 4, dear);   // edge 5: c->t
  n.add_srlg({1, 3}, rng.uniform(0.1, 0.9));
  return n;
}

/// Random shared-risk groups over the finished instance. Member sets may
/// overlap and may straddle the request's natural paths — the point is to
/// exercise the conflict-set search, not to guarantee routability.
void annotate_srlgs(net::WdmNetwork& n, support::Rng& rng,
                    const GenOptions& opt) {
  if (n.num_links() < 2) return;
  const int groups = static_cast<int>(
      rng.uniform_int(1, std::max(1, opt.max_srlg_groups)));
  for (int g = 0; g < groups; ++g) {
    const int want =
        static_cast<int>(rng.uniform_int(2, std::max(2, opt.max_srlg_size)));
    std::vector<graph::EdgeId> members;
    for (int k = 0; k < want; ++k) {
      members.push_back(
          static_cast<graph::EdgeId>(rng.uniform_int(0, n.num_links() - 1)));
    }
    n.add_srlg(std::move(members), rng.uniform(0.05, 0.6));
  }
}

}  // namespace

const char* topo_family_name(TopoFamily f) {
  switch (f) {
    case TopoFamily::kRandomDigraph: return "random-digraph";
    case TopoFamily::kRandomConnected: return "random-connected";
    case TopoFamily::kRing: return "ring";
    case TopoFamily::kGrid: return "grid";
    case TopoFamily::kBackbone: return "backbone";
    case TopoFamily::kTrap: return "trap";
    case TopoFamily::kBridge: return "bridge";
    case TopoFamily::kSrlgTrap: return "srlg-trap";
  }
  return "unknown";
}

FuzzInstance generate_instance(std::uint64_t seed, const GenOptions& opt) {
  support::Rng rng(seed ^ 0xfa5c1b03u);
  FuzzInstance inst;
  inst.seed = seed;

  const int W =
      static_cast<int>(rng.uniform_int(opt.min_wavelengths, opt.max_wavelengths));
  const bool uniform_costs = opt.theorem2_regime_only || rng.bernoulli(0.6);
  // Link costs start at 1; conversion costs stay below 1 so the Theorem 2
  // assumption (conversion <= incident traversal) holds whenever requested.
  const double max_conv = opt.theorem2_regime_only ? 1.0 : 2.0;

  // Family mix: half structured/duplex, the rest directed-random and
  // adversarial shapes. Every SRLG-related draw is gated on srlg_mode so a
  // pre-SRLG seed consumes the identical RNG stream.
  const bool srlg_mode = opt.srlg_probability > 0.0;
  const int roll = static_cast<int>(rng.uniform_int(0, 99));
  TopoFamily family;
  if (srlg_mode && rng.bernoulli(0.15)) family = TopoFamily::kSrlgTrap;
  else if (roll < 25) family = TopoFamily::kRandomDigraph;
  else if (roll < 50) family = TopoFamily::kRandomConnected;
  else if (roll < 60) family = TopoFamily::kRing;
  else if (roll < 70) family = TopoFamily::kGrid;
  else if (roll < 75) family = TopoFamily::kBackbone;
  else if (roll < 90) family = TopoFamily::kTrap;
  else family = TopoFamily::kBridge;
  if (opt.family) family = *opt.family;  // after the draws: stream unchanged
  inst.family = topo_family_name(family);

  switch (family) {
    case TopoFamily::kRandomDigraph: {
      const int n = static_cast<int>(rng.uniform_int(opt.min_nodes, opt.max_nodes));
      const int m = static_cast<int>(rng.uniform_int(n, 3 * n));
      net::WdmNetwork net(n, W);
      for (int i = 0; i < m; ++i) {
        const auto u = static_cast<net::NodeId>(rng.uniform_int(0, n - 1));
        auto v = u;
        while (v == u) v = static_cast<net::NodeId>(rng.uniform_int(0, n - 1));
        add_random_link(net, u, v, W, rng, uniform_costs, 1.0, 10.0);
      }
      inst.network = std::move(net);
      break;
    }
    case TopoFamily::kRandomConnected:
    case TopoFamily::kRing:
    case TopoFamily::kGrid:
    case TopoFamily::kBackbone: {
      topo::Topology t;
      if (family == TopoFamily::kRandomConnected) {
        const int n = static_cast<int>(rng.uniform_int(opt.min_nodes, opt.max_nodes));
        t = topo::random_connected(n, static_cast<int>(rng.uniform_int(0, n)), rng);
      } else if (family == TopoFamily::kRing) {
        const int lo = std::max(3, opt.min_nodes);
        t = topo::ring(static_cast<int>(
            rng.uniform_int(lo, std::max(lo, opt.max_nodes))));
      } else if (family == TopoFamily::kGrid) {
        t = topo::grid(2, static_cast<int>(rng.uniform_int(
                              2, std::max(2, opt.max_nodes / 2))));
      } else {
        t = topo::nsfnet();
      }
      topo::NetworkOptions nopt;
      nopt.num_wavelengths = W;
      nopt.install_probability = rng.uniform(0.6, 1.0);
      nopt.cost_model = uniform_costs ? topo::CostModel::kRandomPerLink
                                      : topo::CostModel::kRandomPerWavelength;
      nopt.cost_lo = 1.0;
      nopt.cost_hi = 10.0;
      nopt.conversion_model = topo::ConversionModel::kFullUniform;
      nopt.conversion_cost = rng.uniform(0.0, max_conv);
      inst.network = topo::build_network(t, nopt, rng);
      break;
    }
    case TopoFamily::kTrap:
      inst.network = trap_network(W, rng, uniform_costs,
                                  static_cast<int>(rng.uniform_int(0, 3)));
      break;
    case TopoFamily::kBridge:
      inst.network = bridge_network(W, rng, uniform_costs);
      break;
    case TopoFamily::kSrlgTrap:
      inst.network = srlg_trap_network(W, rng, uniform_costs);
      break;
  }

  // build_network already set full-uniform conversion for the duplex
  // families; re-draw per-node tables for variety unless Theorem 2 pins them.
  if (family == TopoFamily::kRandomDigraph || family == TopoFamily::kTrap ||
      family == TopoFamily::kBridge || family == TopoFamily::kSrlgTrap ||
      !opt.theorem2_regime_only) {
    assign_conversions(inst.network, rng, opt.theorem2_regime_only, max_conv);
  }

  apply_residual_state(inst.network, rng, opt);

  const net::NodeId n = inst.network.num_nodes();
  if (inst.family == std::string("trap")) {
    inst.s = 0;
    inst.t = 3;
  } else if (inst.family == std::string("srlg-trap")) {
    inst.s = 0;
    inst.t = 4;
  } else if (inst.family == std::string("bridge")) {
    inst.s = static_cast<net::NodeId>(rng.uniform_int(0, 2));
    inst.t = static_cast<net::NodeId>(rng.uniform_int(3, 5));
  } else {
    inst.s = static_cast<net::NodeId>(rng.uniform_int(0, n - 1));
    inst.t = inst.s;
    while (inst.t == inst.s) {
      inst.t = static_cast<net::NodeId>(rng.uniform_int(0, n - 1));
    }
  }
  // Random SRLG annotations last: the physical instance for a seed is
  // identical with or without them, so SRLG-mode failures can be compared
  // against the annotation-free run of the same seed.
  if (srlg_mode && family != TopoFamily::kSrlgTrap &&
      rng.bernoulli(opt.srlg_probability)) {
    annotate_srlgs(inst.network, rng, opt);
  }

  WDM_CHECK(inst.s != inst.t);
  return inst;
}

bool in_theorem2_regime(const net::WdmNetwork& net) {
  if (!topo::satisfies_theorem2_assumption(net)) return false;
  const int W = net.W();
  for (net::NodeId v = 0; v < net.num_nodes(); ++v) {
    const net::ConversionTable& t = net.conversion(v);
    if (!t.is_full()) return false;
    // Uniform cost across non-identity pairs.
    double c0 = -1.0;
    for (net::Wavelength a = 0; a < W; ++a) {
      for (net::Wavelength b = 0; b < W; ++b) {
        if (a == b) continue;
        if (c0 < 0.0) c0 = t.cost(a, b);
        else if (t.cost(a, b) != c0) return false;
      }
    }
  }
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    // Wavelength-independent link costs (assumption (ii)).
    double w0 = -1.0;
    bool uniform = true;
    net.installed(e).for_each([&](net::Wavelength l) {
      if (w0 < 0.0) w0 = net.weight(e, l);
      else if (net.weight(e, l) != w0) uniform = false;
    });
    if (!uniform) return false;
  }
  return true;
}

bool all_nodes_full_conversion(const net::WdmNetwork& net) {
  for (net::NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.conversion(v).is_full()) return false;
  }
  return true;
}

}  // namespace wdm::fuzz
