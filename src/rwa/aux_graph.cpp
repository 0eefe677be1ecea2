#include "rwa/aux_graph.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

using graph::EdgeId;
using graph::NodeId;

bool mean_conversion_cost(const net::WdmNetwork& net, net::NodeId v,
                          graph::EdgeId in_link, graph::EdgeId out_link,
                          double* mean_out) {
  const auto& table = net.conversion(v);
  const net::WavelengthSet from = net.available(in_link);
  const net::WavelengthSet to = net.available(out_link);
  double sum = 0.0;
  int pairs = 0;
  from.for_each([&](net::Wavelength a) {
    to.for_each([&](net::Wavelength b) {
      if (table.allowed(a, b)) {
        sum += table.cost(a, b);
        ++pairs;
      }
    });
  });
  if (pairs == 0) return false;
  if (mean_out != nullptr) *mean_out = sum / pairs;
  return true;
}

void AuxGraphBuilder::bind(const net::WdmNetwork& net) {
  if (net_uid_ == net.uid() && bound_nodes_ == net.num_nodes() &&
      bound_links_ == net.num_links()) {
    return;
  }
  ++stats_.rebinds;
  net_uid_ = net.uid();
  bound_nodes_ = net.num_nodes();
  bound_links_ = net.num_links();
  // The stable-arena structure is keyed on the bound topology.
  uni_ready_ = false;
  uni_weights_valid_ = false;

  const auto& pg = net.graph();
  pair_base_.assign(static_cast<std::size_t>(pg.num_nodes()) + 1, 0);
  std::size_t total = 0;
  for (NodeId v = 0; v < pg.num_nodes(); ++v) {
    pair_base_[static_cast<std::size_t>(v)] = total;
    total += static_cast<std::size_t>(pg.in_degree(v)) *
             static_cast<std::size_t>(pg.out_degree(v));
  }
  pair_base_[static_cast<std::size_t>(pg.num_nodes())] = total;
  pair_in_rev_.assign(total, kNoRevision);
  pair_out_rev_.assign(total, kNoRevision);
  pair_conv_rev_.assign(total, kNoRevision);
  pair_has_.assign(total, 0);
  pair_mean_.assign(total, 0.0);

  const auto m = static_cast<std::size_t>(net.num_links());
  link_rev_seen_.assign(m, kNoRevision);
  link_sum_.assign(m, 0.0);
  link_cnt_.assign(m, 0);
}

bool AuxGraphBuilder::transit_mean(const net::WdmNetwork& net, net::NodeId v,
                                   std::size_t idx, graph::EdgeId in_link,
                                   graph::EdgeId out_link, double* mean_out) {
  const std::uint64_t in_rev = net.link_revision(in_link);
  const std::uint64_t out_rev = net.link_revision(out_link);
  const std::uint64_t conv_rev = net.conversion_revision(v);
  if (pair_in_rev_[idx] == in_rev && pair_out_rev_[idx] == out_rev &&
      pair_conv_rev_[idx] == conv_rev) {
    ++stats_.conv_hits;
    *mean_out = pair_mean_[idx];
    return pair_has_[idx] != 0;
  }
  ++stats_.conv_misses;
  double mean = 0.0;
  const bool has = mean_conversion_cost(net, v, in_link, out_link, &mean);
  pair_in_rev_[idx] = in_rev;
  pair_out_rev_[idx] = out_rev;
  pair_conv_rev_[idx] = conv_rev;
  pair_has_[idx] = has ? 1 : 0;
  pair_mean_[idx] = mean;
  *mean_out = mean;
  return has;
}

void AuxGraphBuilder::link_costs(const net::WdmNetwork& net, graph::EdgeId e,
                                 double* sum, int* count) {
  const std::uint64_t rev = net.link_revision(e);
  const auto i = static_cast<std::size_t>(e);
  if (link_rev_seen_[i] == rev) {
    ++stats_.link_hits;
  } else {
    ++stats_.link_misses;
    // Accumulate in ascending-λ order, exactly like mean_available_weight
    // and the cold G_rc sum, so cached weights stay bit-identical.
    double s = 0.0;
    const net::WavelengthSet avail = net.available(e);
    avail.for_each([&](net::Wavelength l) { s += net.weight(e, l); });
    link_sum_[i] = s;
    link_cnt_[i] = avail.count();
    link_rev_seen_[i] = rev;
  }
  *sum = link_sum_[i];
  *count = link_cnt_[i];
}

const AuxGraph& AuxGraphBuilder::build(const net::WdmNetwork& net,
                                       net::NodeId s, net::NodeId t,
                                       const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  WDM_CHECK(pg.valid_node(s) && pg.valid_node(t));
  WDM_CHECK(s != t);
  WDM_CHECK(opt.link_enabled.empty() ||
            opt.link_enabled.size() == static_cast<std::size_t>(pg.num_edges()));
  if (opt.weighting == AuxWeighting::kLoadExponential) {
    WDM_CHECK_MSG(opt.load_base > 1.0, "G_c requires exponent base a > 1");
  }

  bind(net);
  ++stats_.builds;
  support::telemetry::SplitTimer tel_timer;
  const CacheStats tel_before = tel_timer.on() ? stats_ : CacheStats{};
  (void)tel_before;  // referenced only from macro expansions when compiled in

  patch_weights(net, s, t, opt);
  if (tel_timer.on()) {
    tel_timer.total(WDM_TEL_HIST("rwa.aux_builder.build_ns"),
                    WDM_TEL_NAME("rwa.aux_builder.build"));
    WDM_TEL_COUNT("rwa.aux_builder.builds");
    WDM_TEL_COUNT_N("rwa.aux_builder.conv_hits",
                    stats_.conv_hits - tel_before.conv_hits);
    WDM_TEL_COUNT_N("rwa.aux_builder.conv_misses",
                    stats_.conv_misses - tel_before.conv_misses);
    WDM_TEL_COUNT_N("rwa.aux_builder.link_hits",
                    stats_.link_hits - tel_before.link_hits);
    WDM_TEL_COUNT_N("rwa.aux_builder.link_misses",
                    stats_.link_misses - tel_before.link_misses);
    WDM_TEL_COUNT_N("rwa.aux_builder.rebinds",
                    stats_.rebinds - tel_before.rebinds);
  }
  return aux_;
}

bool AuxGraphBuilder::link_usable(const net::WdmNetwork& net, graph::EdgeId e,
                                  const AuxGraphOptions& opt) const {
  if (!opt.link_enabled.empty() &&
      !opt.link_enabled[static_cast<std::size_t>(e)]) {
    return false;
  }
  if (net.available(e).empty()) return false;
  if (opt.weighting != AuxWeighting::kCost) {
    const double load = net.link_load(e);
    if (opt.include_at_threshold ? load > opt.theta : load >= opt.theta) {
      return false;
    }
  }
  return true;
}

void AuxGraphBuilder::build_universe(const net::WdmNetwork& net,
                                     bool protect) {
  const auto& pg = net.graph();
  const EdgeId m = pg.num_edges();
  const NodeId n = pg.num_nodes();
  const std::size_t pairs = pair_base_[static_cast<std::size_t>(n)];

  AuxGraph& aux = aux_;
  aux.g.clear_keep_capacity();
  aux.phys_edge_of_node.clear();
  aux.is_in_node.clear();
  const NodeId num_nodes =
      2 * m + 2 + (protect ? 2 * n : 0);
  const auto num_arcs = static_cast<std::size_t>(m) + pairs +
                        (protect ? static_cast<std::size_t>(n) +
                                       2 * static_cast<std::size_t>(m)
                                 : 0) +
                        2 * static_cast<std::size_t>(m);
  aux.g.reserve(num_nodes, static_cast<EdgeId>(num_arcs));

  auto new_node = [&](EdgeId e, bool is_in) {
    const NodeId v = aux.g.add_node();
    aux.phys_edge_of_node.push_back(e);
    aux.is_in_node.push_back(is_in ? 1 : 0);
    return v;
  };
  // Computed ids: u_out^e = 2e, v_in^e = 2e + 1, then the two hubs, then the
  // protect gadget nodes (hub_in(v) = 2m + 2 + 2v, hub_out(v) one above).
  for (EdgeId e = 0; e < m; ++e) {
    new_node(e, false);
    new_node(e, true);
  }
  aux.s_prime = new_node(graph::kInvalidEdge, false);
  aux.t_second = new_node(graph::kInvalidEdge, true);
  if (protect) {
    for (NodeId v = 0; v < n; ++v) {
      new_node(graph::kInvalidEdge, true);   // hub_in(v)
      new_node(graph::kInvalidEdge, false);  // hub_out(v)
    }
  }

  // Arc table, fixed order. Weights come later (patch_link, patch_node).
  // 1. Link arcs: arc id e = link arc of physical link e.
  for (EdgeId e = 0; e < m; ++e) {
    aux.g.add_edge(2 * e, 2 * e + 1);
  }
  // 2. Pair transit arcs: m + pair_base_[v] + i * out_deg(v) + j.
  for (NodeId v = 0; v < n; ++v) {
    for (const EdgeId e : pg.in_edges(v)) {
      for (const EdgeId e2 : pg.out_edges(v)) {
        aux.g.add_edge(2 * e + 1, 2 * e2);
      }
    }
  }
  // 3. Protect gadget: one hub arc per node, then one fan arc per link end.
  if (protect) {
    uni_hub_arc_base_ = aux.g.num_edges();
    for (NodeId v = 0; v < n; ++v) {
      const NodeId hub_in = 2 * m + 2 + 2 * v;
      aux.g.add_edge(hub_in, hub_in + 1);
    }
    uni_fan_in_arc_.assign(static_cast<std::size_t>(m), graph::kInvalidEdge);
    uni_fan_out_arc_.assign(static_cast<std::size_t>(m), graph::kInvalidEdge);
    for (NodeId v = 0; v < n; ++v) {
      const NodeId hub_in = 2 * m + 2 + 2 * v;
      for (const EdgeId e : pg.in_edges(v)) {
        uni_fan_in_arc_[static_cast<std::size_t>(e)] =
            aux.g.add_edge(2 * e + 1, hub_in);
      }
      for (const EdgeId e2 : pg.out_edges(v)) {
        uni_fan_out_arc_[static_cast<std::size_t>(e2)] =
            aux.g.add_edge(hub_in + 1, 2 * e2);
      }
    }
  }
  // 4./5. Query wiring: one s' arc and one t'' arc per link, id = base + e.
  uni_sprime_arc_base_ = aux.g.num_edges();
  for (EdgeId e = 0; e < m; ++e) {
    aux.g.add_edge(aux.s_prime, 2 * e);
  }
  uni_tsec_arc_base_ = aux.g.num_edges();
  for (EdgeId e = 0; e < m; ++e) {
    aux.g.add_edge(2 * e + 1, aux.t_second);
  }
  aux.g.finalize_csr();

  aux.w.assign(static_cast<std::size_t>(aux.g.num_edges()), graph::kInf);
  aux.phys_edge_of_arc.assign(static_cast<std::size_t>(aux.g.num_edges()),
                              graph::kInvalidEdge);
  for (EdgeId e = 0; e < m; ++e) {
    aux.phys_edge_of_arc[static_cast<std::size_t>(e)] = e;
  }
  aux.num_edge_nodes = 0;
  aux.num_link_arcs = 0;
  aux.num_transit_arcs = 0;
  uni_usable_.assign(static_cast<std::size_t>(m), 0);
  uni_node_transit_.assign(static_cast<std::size_t>(n), 0);
  uni_link_rev_.assign(static_cast<std::size_t>(m), kNoRevision);
  uni_conv_rev_.assign(static_cast<std::size_t>(n), kNoRevision);
  uni_node_mark_.assign(static_cast<std::size_t>(n), 0);
  const auto nodes = static_cast<std::size_t>(aux.g.num_nodes());
  feas_usable_.assign(static_cast<std::size_t>(m), 0);
  feas_seen_.assign(nodes, 0);
  feas_stamp_ = 0;
  feas_pred_.assign(nodes, graph::kInvalidEdge);
  feas_flow_in_.assign(nodes, graph::kInvalidEdge);
  feas_queue_.assign(nodes, graph::kInvalidNode);
  feas_path_.clear();
  feas_path_.reserve(nodes);
  uni_protect_ = protect;
  uni_ready_ = true;
  uni_weights_valid_ = false;
}

void AuxGraphBuilder::patch_link(const net::WdmNetwork& net, graph::EdgeId e,
                                 net::NodeId s, net::NodeId t,
                                 const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  const auto i = static_cast<std::size_t>(e);
  const bool usable = link_usable(net, e, opt);
  double weight = graph::kInf;
  if (usable) {
    switch (opt.weighting) {
      case AuxWeighting::kCost: {
        double sum = 0.0;
        int count = 0;
        link_costs(net, e, &sum, &count);
        WDM_DCHECK(count > 0);
        weight = sum / count;
        break;
      }
      case AuxWeighting::kLoadExponential: {
        const double u = net.usage(e);
        const double cap = net.capacity(e);
        weight = std::pow(opt.load_base, (u + 1.0) / cap) -
                 std::pow(opt.load_base, u / cap);
        break;
      }
      case AuxWeighting::kCostLoadFiltered: {
        double sum = 0.0;
        int count = 0;
        link_costs(net, e, &sum, &count);
        weight =
            sum / (opt.grc_mean_over_available ? count : net.capacity(e));
        break;
      }
    }
  }
  aux_.w[i] = weight;
  aux_.w[static_cast<std::size_t>(uni_sprime_arc_base_ + e)] =
      (usable && pg.tail(e) == s) ? 0.0 : graph::kInf;
  aux_.w[static_cast<std::size_t>(uni_tsec_arc_base_ + e)] =
      (usable && pg.head(e) == t) ? 0.0 : graph::kInf;
  const bool was = uni_usable_[i] != 0;
  if (was != usable) {
    aux_.num_link_arcs += usable ? 1 : -1;
    aux_.num_edge_nodes += usable ? 2 : -2;
    uni_usable_[i] = usable ? 1 : 0;
  }
}

void AuxGraphBuilder::patch_node(const net::WdmNetwork& net, net::NodeId v,
                                 net::NodeId s, net::NodeId t,
                                 const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  const EdgeId m = pg.num_edges();
  const auto in_edges = pg.in_edges(v);
  const auto out_edges = pg.out_edges(v);
  const std::size_t base = pair_base_[static_cast<std::size_t>(v)];
  const std::size_t out_deg = out_edges.size();
  const bool protect = opt.protect_nodes;
  const bool pair_enabled = !protect || v == s || v == t;

  int contrib = 0;
  double hub_sum = 0.0;
  int hub_pairs = 0;
  for (std::size_t i = 0; i < in_edges.size(); ++i) {
    const EdgeId e = in_edges[i];
    const bool in_ok = uni_usable_[static_cast<std::size_t>(e)] != 0;
    for (std::size_t j = 0; j < out_deg; ++j) {
      const EdgeId e2 = out_edges[j];
      const std::size_t idx = base + i * out_deg + j;
      const auto arc = static_cast<std::size_t>(m) + idx;
      double weight = graph::kInf;
      if (in_ok && uni_usable_[static_cast<std::size_t>(e2)] != 0) {
        double mean = 0.0;
        if (transit_mean(net, v, idx, e, e2, &mean)) {
          if (pair_enabled) {
            weight = (opt.weighting == AuxWeighting::kLoadExponential)
                         ? 0.0
                         : mean;
            ++contrib;
          } else {
            // Aggregated into the node gadget's hub arc in (i, j) order.
            hub_sum += mean;
            ++hub_pairs;
          }
        }
      }
      aux_.w[arc] = weight;
    }
  }

  if (protect) {
    const bool hub_on = !pair_enabled && hub_pairs > 0;
    double hub_weight = graph::kInf;
    if (hub_on) {
      hub_weight = (opt.weighting == AuxWeighting::kLoadExponential)
                       ? 0.0
                       : hub_sum / hub_pairs;
      ++contrib;
    }
    aux_.w[static_cast<std::size_t>(uni_hub_arc_base_ + v)] = hub_weight;
    for (const EdgeId e : in_edges) {
      const EdgeId fan = uni_fan_in_arc_[static_cast<std::size_t>(e)];
      aux_.w[static_cast<std::size_t>(fan)] =
          (hub_on && uni_usable_[static_cast<std::size_t>(e)] != 0)
              ? 0.0
              : graph::kInf;
    }
    for (const EdgeId e2 : out_edges) {
      const EdgeId fan = uni_fan_out_arc_[static_cast<std::size_t>(e2)];
      aux_.w[static_cast<std::size_t>(fan)] =
          (hub_on && uni_usable_[static_cast<std::size_t>(e2)] != 0)
              ? 0.0
              : graph::kInf;
    }
  }
  aux_.num_transit_arcs += contrib - uni_node_transit_[static_cast<std::size_t>(v)];
  uni_node_transit_[static_cast<std::size_t>(v)] = contrib;
}

void AuxGraphBuilder::patch_weights(const net::WdmNetwork& net, net::NodeId s,
                                    net::NodeId t, const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  const EdgeId m = pg.num_edges();
  const NodeId n = pg.num_nodes();
  const bool protect = opt.protect_nodes;
  if (!uni_ready_ || uni_protect_ != protect) {
    build_universe(net, protect);
  }

  const bool mask_now = !opt.link_enabled.empty();
  const bool full =
      !uni_weights_valid_ || mask_now || uni_had_mask_ ||
      uni_opt_.weighting != opt.weighting || uni_opt_.theta != opt.theta ||
      uni_opt_.include_at_threshold != opt.include_at_threshold ||
      uni_opt_.load_base != opt.load_base ||
      uni_opt_.grc_mean_over_available != opt.grc_mean_over_available;
  const std::uint64_t now_rev = net.revision();

  if (!full && now_rev == uni_net_rev_ && s == uni_s_ && t == uni_t_) {
    return;  // weights already bit-identical for this query
  }

  if (full) {
    for (EdgeId e = 0; e < m; ++e) {
      uni_link_rev_[static_cast<std::size_t>(e)] = net.link_revision(e);
      patch_link(net, e, s, t, opt);
    }
    for (NodeId v = 0; v < n; ++v) {
      uni_conv_rev_[static_cast<std::size_t>(v)] = net.conversion_revision(v);
      patch_node(net, v, s, t, opt);
    }
  } else {
    uni_changed_nodes_.clear();
    auto mark = [&](NodeId v) {
      if (!uni_node_mark_[static_cast<std::size_t>(v)]) {
        uni_node_mark_[static_cast<std::size_t>(v)] = 1;
        uni_changed_nodes_.push_back(v);
      }
    };
    // Query rewiring: only arcs touching the old/new endpoints move, and in
    // protect mode the gadgets at those four nodes flip between hub and
    // direct-pair form.
    if (s != uni_s_) {
      for (const EdgeId e : pg.out_edges(uni_s_)) {
        patch_link(net, e, s, t, opt);
      }
      for (const EdgeId e : pg.out_edges(s)) {
        patch_link(net, e, s, t, opt);
      }
      if (protect) {
        mark(uni_s_);
        mark(s);
      }
    }
    if (t != uni_t_) {
      for (const EdgeId e : pg.in_edges(uni_t_)) {
        patch_link(net, e, s, t, opt);
      }
      for (const EdgeId e : pg.in_edges(t)) {
        patch_link(net, e, s, t, opt);
      }
      if (protect) {
        mark(uni_t_);
        mark(t);
      }
    }
    // Residual churn: only links whose revision moved, plus their endpoints'
    // transit structures; only nodes whose conversion table was swapped.
    if (now_rev != uni_net_rev_) {
      for (EdgeId e = 0; e < m; ++e) {
        const std::uint64_t rev = net.link_revision(e);
        auto& seen = uni_link_rev_[static_cast<std::size_t>(e)];
        if (seen == rev) continue;
        seen = rev;
        patch_link(net, e, s, t, opt);
        mark(pg.tail(e));
        mark(pg.head(e));
      }
      for (NodeId v = 0; v < n; ++v) {
        const std::uint64_t rev = net.conversion_revision(v);
        auto& seen = uni_conv_rev_[static_cast<std::size_t>(v)];
        if (seen == rev) continue;
        seen = rev;
        mark(v);
      }
    }
    for (const NodeId v : uni_changed_nodes_) {
      uni_node_mark_[static_cast<std::size_t>(v)] = 0;
      patch_node(net, v, s, t, opt);
    }
  }

  uni_opt_ = opt;
  uni_opt_.link_enabled = {};  // never hold the caller's span across builds
  uni_had_mask_ = mask_now;
  uni_s_ = s;
  uni_t_ = t;
  uni_net_rev_ = now_rev;
  uni_weights_valid_ = true;
}

bool AuxGraphBuilder::has_disjoint_pair(const net::WdmNetwork& net,
                                        net::NodeId s, net::NodeId t,
                                        const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  WDM_CHECK(pg.valid_node(s) && pg.valid_node(t));
  WDM_CHECK(s != t);
  WDM_CHECK(opt.link_enabled.empty() ||
            opt.link_enabled.size() == static_cast<std::size_t>(pg.num_edges()));
  WDM_CHECK_MSG(!opt.protect_nodes,
                "has_disjoint_pair does not model the node-protection gadget");
  bind(net);
  // Any universe serves: a protect-mode one carries the same link, pair and
  // query arcs, and the BFS never enters its gadget arcs.
  if (!uni_ready_) build_universe(net, /*protect=*/false);

  // One s' arc leaves per usable link out of s and one t'' arc enters per
  // usable link into t, so two disjoint paths need two of each.
  int s_links = 0;
  int t_links = 0;
  for (EdgeId e = 0; e < pg.num_edges(); ++e) {
    const bool usable = link_usable(net, e, opt);
    feas_usable_[static_cast<std::size_t>(e)] = usable ? 1 : 0;
    if (usable) {
      s_links += pg.tail(e) == s ? 1 : 0;
      t_links += pg.head(e) == t ? 1 : 0;
    }
  }
  if (s_links < 2 || t_links < 2) return false;
  if (!feasibility_bfs(net, s, t)) return false;

  // Augment along the first path (all of its arcs are forward), then look
  // for a second path in the residual graph.
  for (NodeId v = aux_.t_second; v != aux_.s_prime;) {
    const EdgeId a = feas_pred_[static_cast<std::size_t>(v)];
    feas_flow_in_[static_cast<std::size_t>(v)] = a;
    feas_path_.push_back(v);
    v = aux_.g.tail(a);
  }
  const bool found = feasibility_bfs(net, s, t);
  for (const NodeId v : feas_path_) {
    feas_flow_in_[static_cast<std::size_t>(v)] = graph::kInvalidEdge;
  }
  feas_path_.clear();
  return found;
}

bool AuxGraphBuilder::feasibility_bfs(const net::WdmNetwork& net,
                                      net::NodeId s, net::NodeId t) {
  const auto& pg = net.graph();
  const graph::Digraph& g = aux_.g;
  const EdgeId m = pg.num_edges();
  const auto pair_end = static_cast<EdgeId>(
      static_cast<std::size_t>(m) +
      pair_base_[static_cast<std::size_t>(pg.num_nodes())]);
  const NodeId s_prime = aux_.s_prime;
  const NodeId t_second = aux_.t_second;
  if (++feas_stamp_ == 0) {  // stamp wrapped: forget every old visit
    std::fill(feas_seen_.begin(), feas_seen_.end(), 0U);
    feas_stamp_ = 1;
  }
  auto seen = [&](NodeId v) {
    return feas_seen_[static_cast<std::size_t>(v)] == feas_stamp_;
  };
  // A forward arc has residual capacity unless the first path holds it.
  auto free = [&](EdgeId a, NodeId head) {
    return feas_flow_in_[static_cast<std::size_t>(head)] != a;
  };
  std::size_t q_head = 0;
  std::size_t q_tail = 0;
  auto visit = [&](NodeId v, EdgeId a) {
    const auto i = static_cast<std::size_t>(v);
    feas_seen_[i] = feas_stamp_;
    feas_pred_[i] = a;
    feas_queue_[q_tail++] = v;
  };
  visit(s_prime, graph::kInvalidEdge);
  while (q_head < q_tail) {
    const NodeId u = feas_queue_[q_head++];
    if (u == s_prime) {
      for (const EdgeId e : pg.out_edges(s)) {
        const NodeId v = 2 * e;
        const EdgeId a = uni_sprime_arc_base_ + e;
        if (feas_usable_[static_cast<std::size_t>(e)] != 0 && !seen(v) &&
            free(a, v)) {
          visit(v, a);
        }
      }
      continue;
    }
    // The residual reverse of the first path's arc into u.
    const EdgeId back = feas_flow_in_[static_cast<std::size_t>(u)];
    if (back != graph::kInvalidEdge && !seen(g.tail(back))) {
      visit(g.tail(back), back);
    }
    const EdgeId e = u / 2;
    if (u % 2 == 0) {  // u_out^e: its one out-arc is the link arc
      if (!seen(u + 1) && free(e, u + 1)) visit(u + 1, e);
      continue;
    }
    // v_in^e at x = head(e): the t'' arc, then the transit arcs at x.
    const NodeId x = pg.head(e);
    if (x == t) {
      const EdgeId a = uni_tsec_arc_base_ + e;
      if (free(a, t_second)) {
        feas_pred_[static_cast<std::size_t>(t_second)] = a;
        return true;
      }
    }
    for (const EdgeId a : g.out_edges(u)) {
      if (a < m || a >= pair_end) continue;  // t'' arc or protect gadget
      const NodeId v = g.head(a);
      const EdgeId e2 = v / 2;
      if (feas_usable_[static_cast<std::size_t>(e2)] == 0 || seen(v) ||
          !free(a, v)) {
        continue;
      }
      double mean = 0.0;
      if (transit_mean(net, x, static_cast<std::size_t>(a - m), e, e2, &mean)) {
        visit(v, a);
      }
    }
  }
  return false;
}

AuxGraph build_aux_graph(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t, const AuxGraphOptions& opt) {
  AuxGraphBuilder builder;
  return builder.build(net, s, t, opt);
}

std::vector<EdgeId> AuxGraph::project(const graph::Path& p) const {
  std::vector<EdgeId> links;
  for (EdgeId arc : p.edges) {
    const EdgeId phys = phys_edge_of_arc[static_cast<std::size_t>(arc)];
    if (phys != graph::kInvalidEdge) links.push_back(phys);
  }
  return links;
}

void AuxGraph::project_into(const graph::Path& p,
                            std::vector<EdgeId>* out) const {
  out->clear();
  for (EdgeId arc : p.edges) {
    const EdgeId phys = phys_edge_of_arc[static_cast<std::size_t>(arc)];
    if (phys != graph::kInvalidEdge) out->push_back(phys);
  }
}

std::vector<std::uint8_t> AuxGraph::induced_link_mask(
    const graph::Path& p, graph::EdgeId num_links) const {
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(num_links), 0);
  for (EdgeId link : project(p)) mask[static_cast<std::size_t>(link)] = 1;
  return mask;
}

void AuxGraph::induced_link_mask_into(const graph::Path& p,
                                      graph::EdgeId num_links,
                                      std::vector<std::uint8_t>* out) const {
  out->assign(static_cast<std::size_t>(num_links), 0);
  for (EdgeId arc : p.edges) {
    const EdgeId phys = phys_edge_of_arc[static_cast<std::size_t>(arc)];
    if (phys != graph::kInvalidEdge) (*out)[static_cast<std::size_t>(phys)] = 1;
  }
}

}  // namespace wdm::rwa
